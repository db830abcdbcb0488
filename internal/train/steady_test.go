package train_test

import (
	"math"
	"runtime"
	"testing"

	"coarse/internal/core"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/paramserver"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// steadyCase is one cell of the steady-state allocation gate: a small
// machine, telemetry off, and a strategy or layout.
type steadyCase struct {
	name   string
	spec   topology.Spec
	model  *model.Model
	batch  int
	layout parallel.Layout
	strat  func() train.Strategy
}

func steadyCases() []steadyCase {
	mlp := model.MLP("steady", 64, 48, 32, 16)
	moe := model.MoETransformer("steady-moe", 2, 128, 256, 4, 2, 32)
	allReduce := func() train.Strategy { return train.NewAllReduce() }
	coarse := func() train.Strategy { return core.New(core.DefaultOptions()) }
	// The smallest rack-tier machine: two racks of one single-GPU node.
	rack := topology.ScaleSpec{Racks: 2, NodesPerRack: 1, GPUsPerNode: 1, MemDevs: 2, MemDevTier: topology.TierRack}.Generate()
	return []steadyCase{
		{"AllReduce", topology.AWSV100(), mlp, 2, parallel.Layout{}, allReduce},
		{"COARSE", topology.AWSV100(), mlp, 2, parallel.Layout{}, coarse},
		// COARSE on the T4 machine folds same-instant transfers into
		// groups whose leaders change from one iteration to the next,
		// which pins that group members' callback buffers are reused.
		{"COARSE-groups", topology.AWST4(), mlp, 2, parallel.Layout{}, coarse},
		// On a rack machine the pooled flow records carry paths of
		// several lengths, which pins that a recycled record's channel-id
		// buffer never grows again.
		{"COARSE-rack", rack, pipeDense(), 2, parallel.Layout{}, coarse},
		{"DENSE", topology.AWSV100(), mlp, 2, parallel.Layout{}, func() train.Strategy { return paramserver.NewDENSE() }},
		{"CentralPS", topology.AWSV100(), mlp, 2, parallel.Layout{}, func() train.Strategy { return paramserver.NewCentralPS() }},
		{"pp", pipeSpec(), pipeDense(), 4, parallel.Layout{PP: 2, Micro: 2}, allReduce},
		{"tp", pipeSpec(), pipeDense(), 4, parallel.Layout{TP: 2}, allReduce},
		{"ep", pipeSpec(), moe, 4, parallel.Layout{EP: 2}, allReduce},
	}
}

// runMallocs builds c for iters iterations and returns the heap
// objects its Run allocates (strategy set-up included), with the
// trainer. It measures under GOMAXPROCS(1), as testing.AllocsPerRun
// does, and keeps the least of three runs: the simulation's own
// allocations repeat exactly, so only the runtime's stray ones can
// differ between them.
func runMallocs(t *testing.T, c steadyCase, iters int) (uint64, *train.Trainer) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	var tr *train.Trainer
	for i := 0; i < 3; i++ {
		cfg := train.DefaultConfig(c.spec, c.model, c.batch, iters)
		cfg.Layout = c.layout
		var err error
		if tr, err = train.New(cfg, c.strat()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least, tr
}

// TestSteadyStateAllocs: once the first iterations have grown the free
// lists, a training iteration allocates nothing, for every strategy on
// the data-parallel layout and for each sharded layout kind: a run of
// six iterations allocates exactly what a run of two does. After Run,
// ReleasePool has emptied every free list the run used.
//
// Mallocs also counts the runtime's own allocations, which under the
// race detector now and then add a few objects to every run of one
// measurement. A comparison that differs is therefore measured again,
// up to three times; an allocation of the simulation's own would
// differ every time.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case eighteen times")
	}
	for _, c := range steadyCases() {
		t.Run(c.name, func(t *testing.T) {
			var two, six uint64
			var tr *train.Trainer
			for attempt := 0; attempt < 3; attempt++ {
				two, _ = runMallocs(t, c, 2)
				if six, tr = runMallocs(t, c, 6); six == two {
					break
				}
			}
			if six != two {
				t.Errorf("6 iterations allocate %d objects, 2 allocate %d: %+.1f per steady-state iteration, want 0",
					six, two, (float64(six)-float64(two))/4)
			}
			if n := tr.Ctx().Eng.Pooled(); n != 0 {
				t.Errorf("after Run the engine's free lists hold %d records, want 0", n)
			}
		})
	}
}
