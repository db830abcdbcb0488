package paramserver

import (
	"testing"

	"coarse/internal/model"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func run(t *testing.T, strat train.Strategy, m *model.Model, batch int) *train.Result {
	t.Helper()
	cfg := train.DefaultConfig(topology.SDSCP100(), m, batch, 3)
	res, err := train.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCentralPSCompletes(t *testing.T) {
	res := run(t, NewCentralPS(), model.MLP("tiny", 64, 32), 4)
	if res.Strategy != "CentralPS" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
	if res.IterTime <= 0 {
		t.Fatal("non-positive iteration time")
	}
}

func TestDENSECompletes(t *testing.T) {
	res := run(t, NewDENSE(), model.MLP("tiny", 64, 32), 4)
	if res.Strategy != "DENSE" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
}

func TestDENSESlowerThanCentralPS(t *testing.T) {
	// DENSE moves everything at CCI line rate (~1 GB/s); the CPU PS
	// moves at serial-bus DMA rates. For a communication-heavy model
	// DENSE must be clearly slower.
	m := model.ResNet50()
	dense := run(t, NewDENSE(), m, 8)
	ps := run(t, NewCentralPS(), m, 8)
	if dense.IterTime <= ps.IterTime {
		t.Fatalf("DENSE %v should be slower than CentralPS %v", dense.IterTime, ps.IterTime)
	}
}

func TestAllReduceBeatsDENSE(t *testing.T) {
	// The core premise of Figures 16-17: decentralized allreduce
	// reduces blocked communication to a small fraction of DENSE's.
	m := model.ResNet50()
	dense := run(t, NewDENSE(), m, 8)
	ar := run(t, train.NewAllReduce(), m, 8)
	speedup := dense.IterTime.ToSeconds() / ar.IterTime.ToSeconds()
	if speedup < 1.5 {
		t.Fatalf("AllReduce speedup over DENSE = %.2fx, want >1.5x", speedup)
	}
	if ar.BlockedComm >= dense.BlockedComm {
		t.Fatalf("AllReduce blocked %v should be below DENSE %v", ar.BlockedComm, dense.BlockedComm)
	}
}

func TestDENSEBlockedCommDominates(t *testing.T) {
	res := run(t, NewDENSE(), model.ResNet50(), 8)
	if res.BlockedComm.ToSeconds() < res.ComputeTime.ToSeconds() {
		t.Fatalf("DENSE blocked %v should dominate compute %v on a comm-bound model",
			res.BlockedComm, res.ComputeTime)
	}
	if res.GPUUtil > 0.6 {
		t.Fatalf("DENSE utilization %.2f implausibly high", res.GPUUtil)
	}
}

func TestDENSECoherencePenaltyGrowsWithWorkers(t *testing.T) {
	// More workers sharing the region -> more coherence traffic -> less
	// payload bandwidth per worker. Compare per-worker transfer times.
	mkCtx := func(spec topology.Spec) *DENSE {
		s := NewDENSE()
		cfg := train.DefaultConfig(spec, model.MLP("tiny", 8, 4), 1, 1)
		tr, err := train.New(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Setup(tr.Ctx()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	two := mkCtx(topology.SDSCP100()) // 2 workers
	four := mkCtx(topology.AWSV100()) // 4 workers
	if four.PortRate(true) >= two.PortRate(true) {
		t.Fatal("DENSE port rate should degrade with more sharers")
	}
}

func TestWorkerStateExcludesOptimizer(t *testing.T) {
	m := model.BERTLarge()
	if NewCentralPS().WorkerStateBytes(m) != 2*m.ParamBytes() {
		t.Fatal("CentralPS worker state should be params+grads only")
	}
	if NewDENSE().WorkerStateBytes(m) != 2*m.ParamBytes() {
		t.Fatal("DENSE worker state should be params+grads only")
	}
	// AllReduce keeps optimizer state on-GPU: strictly more.
	if train.NewAllReduce().WorkerStateBytes(m) <= NewDENSE().WorkerStateBytes(m) {
		t.Fatal("AllReduce worker state should exceed DENSE's")
	}
}
