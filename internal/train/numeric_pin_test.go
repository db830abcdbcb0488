package train_test

// Numeric pins: final parameters of short numeric runs, bitwise, as a
// 64-bit FNV-1a digest over every worker's every parameter. The digests
// pin where the numeric hooks sit in the training driver — the
// optimizer step before a layer's forward, the synthetic gradient
// before GradientReady — and each strategy's gradient averaging when a
// reduction tree retires. Flat and hierarchical AllReduce average the
// same gradients, so they share a digest.

import (
	"hash/fnv"
	"math"
	"testing"

	"coarse/internal/core"
	"coarse/internal/model"
	"coarse/internal/tensor"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func paramsDigest(params [][]*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, ps := range params {
		for _, p := range ps {
			for _, v := range p.Data {
				u := math.Float32bits(v)
				b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

func TestNumericFinalParamsPinned(t *testing.T) {
	hier := train.NewAllReduce()
	hier.Hierarchical = true
	split := core.DefaultOptions()
	split.MFraction = 0.1 // both the proxy path and the GPU tail carry layers
	coarse := core.New(split)
	cases := []struct {
		name  string
		spec  topology.Spec
		strat train.Strategy
		want  uint64
	}{
		{"AllReduce/flat", topology.MultiNodeV100(2), train.NewAllReduce(), 0xf41864a9b4cbefb5},
		{"AllReduce/hierarchical", topology.MultiNodeV100(2), hier, 0xf41864a9b4cbefb5},
		{"COARSE", topology.AWSV100(), coarse, 0x7e9cd7ceb9128a55},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := train.DefaultConfig(c.spec, model.MLP("mlp", 64, 32, 16, 10), 2, 4)
			cfg.Numeric = true
			tr, err := train.New(cfg, c.strat)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(); err != nil {
				t.Fatal(err)
			}
			if got := paramsDigest(tr.Ctx().Params); got != c.want {
				t.Errorf("final parameter digest %#x, want %#x", got, c.want)
			}
		})
	}
	if coarse.GPUSyncedBytes == 0 || coarse.MBytes() == 0 {
		t.Errorf("COARSE split left a path idle: GPU-synced %d B, proxy share %d B",
			coarse.GPUSyncedBytes, coarse.MBytes())
	}
}
