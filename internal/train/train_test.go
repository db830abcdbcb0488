package train

import (
	"errors"
	"testing"

	"coarse/internal/gpu"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

func TestLatch(t *testing.T) {
	l := &Latch{}
	fired := 0
	l.Wait(func() { fired++ })
	if fired != 0 {
		t.Fatal("waiter fired before open")
	}
	l.Open()
	if fired != 1 || !l.IsOpen() {
		t.Fatalf("fired=%d open=%v", fired, l.IsOpen())
	}
	l.Wait(func() { fired++ }) // immediate after open
	if fired != 2 {
		t.Fatal("post-open wait not immediate")
	}
	l.Open() // idempotent
	if fired != 2 {
		t.Fatal("re-open re-fired waiters")
	}
}

// instant is a strategy that synchronizes in zero time; it isolates the
// trainer's compute scheduling.
type instant struct{ ctx *Ctx }

func (s *instant) Name() string                          { return "Instant" }
func (s *instant) WorkerStateBytes(m *model.Model) int64 { return 2 * m.ParamBytes() }
func (s *instant) Setup(ctx *Ctx) error                  { s.ctx = ctx; return nil }
func (s *instant) GradientReady(it, w, layer int)        { s.ctx.MarkReady(it, w, layer) }

// never is a strategy that never completes synchronization.
type never struct{}

func (never) Name() string                          { return "Never" }
func (never) WorkerStateBytes(m *model.Model) int64 { return 0 }
func (never) Setup(*Ctx) error                      { return nil }
func (never) GradientReady(int, int, int)           {}

func mlpConfig(iters int) Config {
	cfg := DefaultConfig(topology.SDSCP100(), model.MLP("tiny", 16, 32, 8), 4, iters)
	return cfg
}

func TestInstantStrategyHasZeroBlockedTime(t *testing.T) {
	res, err := Run(mlpConfig(4), &instant{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockedComm != 0 {
		t.Fatalf("blocked = %v, want 0", res.BlockedComm)
	}
	if res.GPUUtil < 0.99 {
		t.Fatalf("util = %v, want ~1", res.GPUUtil)
	}
	if res.IterTime != res.ComputeTime {
		t.Fatalf("iter %v != compute %v with instant sync", res.IterTime, res.ComputeTime)
	}
}

func TestIterationTimeMatchesRoofline(t *testing.T) {
	cfg := mlpConfig(3)
	res, err := Run(cfg, &instant{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	m := topology.Build(eng, cfg.Spec)
	g := gpu.New(m.Workers[0], cfg.Spec.GPU)
	want := g.FwdTime(cfg.Model, cfg.Batch) + g.BwdTime(cfg.Model, cfg.Batch)
	if res.IterTime != want {
		t.Fatalf("iter = %v, want %v", res.IterTime, want)
	}
}

func TestDeadlockedStrategyReportsStall(t *testing.T) {
	_, err := Run(mlpConfig(2), never{})
	if err == nil {
		t.Fatal("expected stall error")
	}
}

func TestOOMPropagates(t *testing.T) {
	cfg := DefaultConfig(topology.AWSV100(), model.BERTLarge(), 64, 1)
	_, err := Run(cfg, NewAllReduce())
	if err == nil || !errors.Is(err, gpu.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := mlpConfig(0)
	if _, err := Run(cfg, &instant{}); err == nil {
		t.Fatal("zero iterations accepted")
	}
	cfg = mlpConfig(1)
	cfg.Batch = 0
	if _, err := Run(cfg, &instant{}); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestAllReduceCompletes(t *testing.T) {
	cfg := DefaultConfig(topology.SDSCP100(), model.ResNet50(), 8, 3)
	res, err := Run(cfg, NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime < res.ComputeTime {
		t.Fatalf("iter %v < compute %v", res.IterTime, res.ComputeTime)
	}
	if res.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestSingleWorkerDegenerate(t *testing.T) {
	spec := topology.SDSCP100()
	spec.Slots = []string{"WM", "M-"} // 1 worker, 2 memdevs
	cfg := DefaultConfig(spec, model.MLP("tiny", 8, 4), 2, 2)
	res, err := Run(cfg, NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Fatalf("workers = %d", res.Workers)
	}
	if res.BlockedComm != 0 {
		t.Fatalf("single worker blocked = %v", res.BlockedComm)
	}
}

// TestMoERoutesReleased: the four all-to-alls of an expert layer share
// one cached routing matrix, and the last of them drops it, so a
// finished run holds no routing and no open rendezvous.
func TestMoERoutesReleased(t *testing.T) {
	spec := topology.ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 2, Oversub: 2}.Generate()
	cfg := DefaultConfig(spec, model.MoETransformer("moe", 2, 128, 256, 4, 2, 32), 4, 2)
	cfg.Layout = parallel.Layout{EP: 2}
	tr, err := New(cfg, NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.CommStats().EPTokens <= 0 {
		t.Fatal("EP layout routed no tokens")
	}
	if len(tr.epGroups) == 0 {
		t.Fatal("EP layout built no EP group")
	}
	for base, g := range tr.epGroups {
		if len(g.routes) != 0 || g.gathering != nil {
			t.Errorf("after Run: EP group %d holds %d routings and an open rendezvous %v; want none", base, len(g.routes), g.gathering != nil)
		}
	}
}
