package coarse

// Integration tests: cross-module scenarios through the public API.

import (
	"math/rand"
	"testing"

	"coarse/internal/config"
	"coarse/internal/tensor"
	"coarse/internal/train"
)

func TestDeterminism(t *testing.T) {
	// The whole stack — engine, fabric, profiler, strategies — must be
	// deterministic: identical configs give identical measurements.
	run := func() *Result {
		res, err := Train(AWSV100(), BERTBase(), 2, 3, StrategyCOARSE)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.IterTime != b.IterTime || a.BlockedComm != b.BlockedComm || a.TotalTime != b.TotalTime {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestAllModelsAllMachines(t *testing.T) {
	// Every evaluation model trains on every machine with COARSE at a
	// feasible batch size.
	models := []struct {
		m     *Model
		batch int
	}{
		{ResNet50(), 16},
		{BERTBase(), 2},
		{VGG16(), 8},
	}
	machines := []MachineSpec{AWST4(), SDSCP100(), AWSV100(), AWSV100TwoToOne()}
	for _, spec := range machines {
		for _, mc := range models {
			res, err := Train(spec, mc.m, mc.batch, 2, StrategyCOARSE)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Label, mc.m.Name, err)
			}
			if res.IterTime < res.ComputeTime {
				t.Fatalf("%s/%s: iter %v < compute %v", spec.Label, mc.m.Name, res.IterTime, res.ComputeTime)
			}
		}
	}
}

func TestVGG16DenseHeavyTensors(t *testing.T) {
	// VGG's two ~400 MB dense tensors are the extreme bandwidth-critical
	// case: partitioning must keep COARSE within range of AllReduce.
	ar, err := Train(AWSV100(), VGG16(), 16, 3, StrategyAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Train(AWSV100(), VGG16(), 16, 3, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	ratio := co.IterTime.ToSeconds() / ar.IterTime.ToSeconds()
	if ratio > 1.3 {
		t.Fatalf("COARSE %.2fx slower than AllReduce on VGG16, want within 1.3x", ratio)
	}
}

func TestMultiNodeNumericEquivalence(t *testing.T) {
	// Real training across two nodes: COARSE and AllReduce produce the
	// same parameters even when the ring spans the datacenter network.
	ds := Blobs(9, 320, 8, 4, 5)
	co, err := TrainReal(MultiNodeV100(2), []int{16}, ds, 8, 6, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := TrainReal(MultiNodeV100(2), []int{16}, ds, 8, 6, StrategyAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if d := co.LossEnd - ar.LossEnd; d > 1e-6 || d < -1e-6 {
		t.Fatalf("multi-node losses diverge: %v vs %v", co.LossEnd, ar.LossEnd)
	}
	if co.Result.Workers != 8 {
		t.Fatalf("expected 8 workers across 2 nodes, got %d", co.Result.Workers)
	}
}

func TestT4BouncePathNumerics(t *testing.T) {
	// On the no-P2P machine every transfer bounces through the CPU; the
	// numeric result must be unaffected.
	ds := Blobs(7, 200, 8, 2, 5)
	rep, err := TrainReal(AWST4(), []int{16}, ds, 8, 15, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LossEnd >= rep.LossStart {
		t.Fatalf("loss did not improve on T4: %v -> %v", rep.LossStart, rep.LossEnd)
	}
}

func TestTwoToOneSharedProxyNumerics(t *testing.T) {
	// The 2:1 configuration shares each proxy between two clients; the
	// queue-based scheduler must keep training correct.
	ds := Blobs(13, 200, 8, 2, 5)
	rep, err := TrainReal(AWSV100TwoToOne(), []int{16}, ds, 8, 10, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := TrainReal(AWSV100TwoToOne(), []int{16}, ds, 8, 10, StrategyAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.LossEnd - ar.LossEnd; d > 1e-6 || d < -1e-6 {
		t.Fatalf("2:1 losses diverge: %v vs %v", rep.LossEnd, ar.LossEnd)
	}
}

func TestStrategiesPreserveReplicaConsistency(t *testing.T) {
	// After any number of iterations with any strategy, all replicas
	// hold bit-identical parameters — the synchronized-training
	// contract (no staleness, unlike Hop's bounded-staleness design).
	ds := Blobs(21, 160, 6, 3, 5)
	for _, s := range []Strategy{StrategyCentralPS, StrategyDENSE, StrategyAllReduce, StrategyCOARSE} {
		sizes := []int{6, 12, 3}
		spec := MLP("consistency", sizes...)
		_ = spec
		rep, err := TrainReal(SDSCP100(), []int{12}, ds, 8, 7, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if rep.Accuracy < 0.3 {
			t.Fatalf("%s: accuracy %.2f implausibly low", s, rep.Accuracy)
		}
	}
}

func TestThroughputMonotoneInWorkers(t *testing.T) {
	// Two nodes deliver more total throughput than one for a
	// compute-bound model (weak scaling sanity).
	one, err := Train(AWSV100(), ResNet50(), 32, 3, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Train(MultiNodeV100(2), ResNet50(), 32, 3, StrategyCOARSE)
	if err != nil {
		t.Fatal(err)
	}
	if two.Throughput() <= one.Throughput() {
		t.Fatalf("2-node throughput %v <= 1-node %v on a compute-bound model",
			two.Throughput(), one.Throughput())
	}
}

func TestTensorAliasSurfacesInternals(t *testing.T) {
	// The public Tensor alias interoperates with internal helpers.
	x := &Tensor{Name: "w", Data: []float32{1, 2}}
	y := x.Clone()
	if tensor.MaxAbsDiff(x, y) != 0 {
		t.Fatal("alias broken")
	}
}

// TestPropertyRandomStacks fuzzes the whole stack: random MLP shapes on
// randomly perturbed machines must complete under COARSE and produce
// bit-identical parameters to AllReduce. Any routing, partitioning,
// scheduling or numeric bug that breaks synchronization shows up here.
func TestPropertyRandomStacks(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 12; trial++ {
		// Random model: 2-4 layers of 8..96 units.
		sizes := []int{rng.Intn(88) + 8}
		layers := rng.Intn(3) + 1
		for i := 0; i < layers; i++ {
			sizes = append(sizes, rng.Intn(88)+8)
		}
		m := MLP("fuzz", sizes...)

		// Random machine: start from a preset and perturb bandwidths.
		bases := []MachineSpec{AWST4(), SDSCP100(), AWSV100(), AWSV100TwoToOne()}
		spec := bases[rng.Intn(len(bases))]
		perturb := func(v float64) float64 { return v * (0.5 + rng.Float64()) }
		spec.PeerBW = perturb(spec.PeerBW)
		spec.UpBW = perturb(spec.UpBW)
		spec.CCIRingBW = perturb(spec.CCIRingBW)

		batch := rng.Intn(7) + 1
		iters := rng.Intn(3) + 2

		final := func(s Strategy) [][]*Tensor {
			strat, err := config.Strategy(string(s))
			if err != nil {
				t.Fatal(err)
			}
			cfg := train.DefaultConfig(spec, m, batch, iters)
			cfg.Numeric = true
			tr, err := train.New(cfg, strat)
			if err != nil {
				t.Fatalf("trial %d (%s %v b%d): %v", trial, spec.Label, sizes, batch, err)
			}
			if _, err := tr.Run(); err != nil {
				t.Fatalf("trial %d (%s %v b%d): %v", trial, spec.Label, sizes, batch, err)
			}
			return tr.Ctx().Params
		}
		co := final(StrategyCOARSE)
		ar := final(StrategyAllReduce)
		for l := range co[0] {
			for w := range co {
				if d := tensor.MaxAbsDiff(co[w][l], ar[w][l]); d > 1e-6 {
					t.Fatalf("trial %d (%s %v b%d i%d): layer %d worker %d diverged by %v",
						trial, spec.Label, sizes, batch, iters, l, w, d)
				}
			}
		}
	}
}
