package train_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"coarse/internal/config"
	"coarse/internal/model"
	"coarse/internal/sim"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// lateGradient wraps a strategy and hands it the last worker's
// gradients lateBy late. Every delivery checks that no member of the
// gradient's reduction tree is already ready for that layer: a strategy
// that reduces before every member's gradient has arrived marks the
// layer ready during the delay, ahead of the late gradient.
type lateGradient struct {
	train.Strategy
	t      *testing.T
	ctx    *train.Ctx
	failed bool
}

const lateBy = sim.Time(10 * time.Millisecond)

func (s *lateGradient) Setup(ctx *train.Ctx) error {
	s.ctx = ctx
	return s.Strategy.Setup(ctx)
}

func (s *lateGradient) GradientReady(it, w, layer int) {
	if w == s.ctx.NumWorkers()-1 {
		s.ctx.Eng.Schedule(lateBy, func() { s.deliver(it, w, layer) })
		return
	}
	s.deliver(it, w, layer)
}

func (s *lateGradient) deliver(it, w, layer int) {
	plan := s.ctx.Plan()
	for _, m := range plan.GroupMembers(plan.GroupID(w, layer)) {
		if !s.failed && s.ctx.Ready(it, m, layer) {
			s.failed = true
			s.t.Errorf("iteration %d layer %d: worker %d ready before worker %d's gradient arrived", it, layer, m, w)
		}
	}
	s.Strategy.GradientReady(it, w, layer)
}

// runLate trains cfg under strat with the last worker's gradients
// delivered late; the run must complete.
func runLate(t *testing.T, cfg train.Config, strat train.Strategy) {
	t.Helper()
	if _, err := train.Run(cfg, &lateGradient{Strategy: strat, t: t}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyAfterEveryGradient: under every strategy and layout, no
// worker's parameters for a layer are marked up to date until every
// member of the layer's reduction tree has handed the strategy its
// gradient. The cases are the steady-state allocation cells,
// hierarchical AllReduce across two nodes, and twelve seeded random
// MLPs on perturbed machine presets under all four strategies.
func TestReadyAfterEveryGradient(t *testing.T) {
	for _, c := range steadyCases() {
		t.Run("steady/"+c.name, func(t *testing.T) {
			cfg := train.DefaultConfig(c.spec, c.model, c.batch, 3)
			cfg.Layout = c.layout
			runLate(t, cfg, c.strat())
		})
	}
	t.Run("hierarchical", func(t *testing.T) {
		a := train.NewAllReduce()
		a.Hierarchical = true
		runLate(t, train.DefaultConfig(topology.MultiNodeV100(2), model.MLP("tiny", 16, 8), 2, 3), a)
	})
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 12; trial++ {
		// Random model: 2-4 layers of 8..96 units.
		sizes := []int{rng.Intn(88) + 8}
		layers := rng.Intn(3) + 1
		for i := 0; i < layers; i++ {
			sizes = append(sizes, rng.Intn(88)+8)
		}
		m := model.MLP("fuzz", sizes...)

		// Random machine: a preset with perturbed bandwidths.
		bases := []topology.Spec{topology.AWST4(), topology.SDSCP100(), topology.AWSV100(), topology.AWSV100TwoToOne()}
		spec := bases[rng.Intn(len(bases))]
		perturb := func(v float64) float64 { return v * (0.5 + rng.Float64()) }
		spec.PeerBW = perturb(spec.PeerBW)
		spec.UpBW = perturb(spec.UpBW)
		spec.CCIRingBW = perturb(spec.CCIRingBW)

		batch := rng.Intn(7) + 1
		iters := rng.Intn(3) + 2
		for _, name := range config.Strategies() {
			t.Run(fmt.Sprintf("random%d/%s", trial, name), func(t *testing.T) {
				strat, err := config.Strategy(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s %v batch %d, %d iterations", spec.Label, sizes, batch, iters)
				runLate(t, train.DefaultConfig(spec, m, batch, iters), strat)
			})
		}
	}
}

// TestLatchRingGatesEveryLayer: over a run that reuses every slot of
// the trainer's two-iteration latch ring, every strategy still gates
// each layer on every gradient.
func TestLatchRingGatesEveryLayer(t *testing.T) {
	for _, name := range config.Strategies() {
		t.Run(name, func(t *testing.T) {
			strat, err := config.Strategy(name)
			if err != nil {
				t.Fatal(err)
			}
			runLate(t, train.DefaultConfig(topology.AWSV100(), model.MLP("tiny", 16, 8, 8), 2, 5), strat)
		})
	}
}
