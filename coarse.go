// Package coarse is a Go reproduction of COARSE, the cache-coherent
// disaggregated-memory parameter-synchronization system for distributed
// deep-learning training (Wang, Sim, Lim, Zhao — HPCA 2022).
//
// The package simulates the paper's full stack — PCIe/CCI fabrics with
// max-min fair bandwidth sharing, directory coherence, disaggregated
// memory devices with near-memory sync cores, worker GPUs with roofline
// compute timing — and times data-parallel training over it with four
// synchronization strategies: a centralized CPU parameter server, the
// naive DENSE CCI design, NCCL-style ring AllReduce, and COARSE itself
// (decentralized proxies, bandwidth-aware tensor routing, equal-shard
// partitioning, dual synchronization, queue-based deadlock avoidance).
//
// Quick start:
//
//	res, err := coarse.Train(coarse.AWSV100(), coarse.BERTBase(), 2, 4, coarse.StrategyCOARSE)
//	fmt.Println(res.IterTime, res.BlockedComm)
//
// Every figure and table of the paper's evaluation regenerates through
// RunExperiment; see EXPERIMENTS.md for the paper-vs-measured record.
package coarse

import (
	"errors"
	"fmt"

	"coarse/internal/cci"
	"coarse/internal/config"
	"coarse/internal/core"
	"coarse/internal/experiments"
	"coarse/internal/gpu"
	"coarse/internal/model"
	"coarse/internal/profiler"
	"coarse/internal/sim"
	"coarse/internal/tensor"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// Re-exported core types. Aliases keep the public surface small while
// the implementation lives in focused internal packages.
type (
	// Model is a DL model's parameter-tensor inventory.
	Model = model.Model
	// MachineSpec describes a machine preset (Table I).
	MachineSpec = topology.Spec
	// Result is a training run's measurements.
	Result = train.Result
	// RoutingTable is a client's profiled routing table (Section III-E).
	RoutingTable = profiler.Table
	// Tensor is a named float32 parameter buffer.
	Tensor = tensor.Tensor
	// Session is COARSE's standalone push/pull parameter-server
	// interface, for framework integrations that drive synchronization
	// directly instead of through Train.
	Session = core.Session
	// Client is one worker's push/pull handle within a Session.
	Client = core.Client
)

// NewSession opens a push/pull session on a machine preset with the
// full COARSE design enabled.
func NewSession(machine MachineSpec) (*Session, error) {
	return core.NewSession(machine, core.DefaultOptions())
}

// Model zoo (paper Section V-D workloads plus extras).
var (
	ResNet50  = model.ResNet50
	BERTBase  = model.BERTBase
	BERTLarge = model.BERTLarge
	VGG16     = model.VGG16
	MLP       = model.MLP
)

// Machine presets (paper Table I).
var (
	AWST4           = topology.AWST4
	SDSCP100        = topology.SDSCP100
	AWSV100         = topology.AWSV100
	AWSV100TwoToOne = topology.AWSV100TwoToOne
	MultiNodeV100   = topology.MultiNodeV100
	Presets         = topology.Presets
)

// GPUSpecOf builds a GPU description for custom machine specs.
func GPUSpecOf(model string, tflops float64, memBytes int64, memBW float64) topology.GPUSpec {
	return topology.GPUSpec{Model: model, TFLOPS: tflops, MemBytes: memBytes, MemBW: memBW}
}

// Strategy selects a parameter-synchronization scheme.
type Strategy string

// The four synchronization strategies of the evaluation.
const (
	StrategyCentralPS Strategy = "CentralPS"
	StrategyDENSE     Strategy = "DENSE"
	StrategyAllReduce Strategy = "AllReduce"
	StrategyCOARSE    Strategy = "COARSE"
)

// Strategies lists all strategies in the figures' order.
func Strategies() []Strategy {
	return []Strategy{StrategyCentralPS, StrategyDENSE, StrategyAllReduce, StrategyCOARSE}
}

// Train simulates data-parallel training of a model on a machine preset
// and returns its measurements. It fails with an out-of-memory error
// when a replica plus the strategy's on-GPU state does not fit device
// memory — the paper's Figure 16e batch-size effect.
func Train(machine MachineSpec, m *Model, batch, iterations int, strategy Strategy) (*Result, error) {
	strat, err := config.Strategy(string(strategy))
	if err != nil {
		return nil, err
	}
	cfg := train.DefaultConfig(machine, m, batch, iterations)
	return train.Run(cfg, strat)
}

// MaxFeasibleBatch returns the largest per-GPU batch size in [1, limit]
// whose model replica — plus the strategy's on-GPU training state —
// fits device memory, or an error when even batch 1 does not fit. It is
// the decision the paper's Figure 16e turns on: AllReduce carries full
// optimizer state per GPU and caps out earlier than COARSE, which
// offloads that state to the memory devices.
func MaxFeasibleBatch(machine MachineSpec, m *Model, strategy Strategy, limit int) (int, error) {
	if limit < 1 {
		return 0, fmt.Errorf("coarse: limit %d", limit)
	}
	strat, err := config.Strategy(string(strategy))
	if err != nil {
		return 0, err
	}
	// fits reports whether batch fits; an error other than an OOM ends
	// the search.
	fits := func(batch int) (bool, error) {
		_, err := train.New(train.DefaultConfig(machine, m, batch, 1), strat)
		if errors.Is(err, gpu.ErrOOM) {
			return false, nil
		}
		return err == nil, err
	}
	ok, err := fits(1)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("coarse: %s does not fit %s at batch 1", m.Name, machine.Label)
	}
	lo, hi := 1, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// Profile builds every worker's routing table on a machine by running
// the offline probe profiler over the simulated fabric.
func Profile(machine MachineSpec) []RoutingTable {
	eng := sim.NewEngine()
	mc := topology.Build(eng, machine)
	p := profiler.New(cci.NewFabric(mc.Topology, cci.DefaultParams()))
	var tables []RoutingTable
	for _, w := range mc.Workers {
		tables = append(tables, p.BuildTable(w, mc.Devs))
	}
	return tables
}

// ExperimentIDs lists the regenerable paper artifacts (fig3...fig17,
// tab1, ablations).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper figure or table, returning its
// rendered tables. quick trims iteration counts for fast runs.
func RunExperiment(id string, quick bool) ([]string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("coarse: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	var out []string
	for _, tab := range e.Run(experiments.Config{Quick: quick}).Tables {
		out = append(out, tab.String())
	}
	return out, nil
}

// ExperimentInfo returns an experiment's title and the paper's reported
// result for it.
func ExperimentInfo(id string) (title, paper string, err error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", "", fmt.Errorf("coarse: unknown experiment %q", id)
	}
	return e.Title, e.Paper, nil
}
