// Package config is every front end's name table: Machine, Model and
// Strategy resolve the names coarsesim, coarseprof, the root coarse
// package and the experiments accept. It also loads training scenarios
// from JSON, so coarsesim can run custom machines without recompiling.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"coarse/internal/model"
	"coarse/internal/topology"
)

// Scenario is one training configuration.
type Scenario struct {
	// Machine names a preset: multi, sdsc, t4, v100, v100-2to1,
	// v100-nvlink.
	Machine string `json:"machine"`
	// Nodes sets the multi preset's node count, at least 2; zero means
	// 2. Other presets are one node and reject it.
	Nodes int `json:"nodes,omitempty"`
	// Overrides adjusts preset fields; zero values keep the preset's,
	// negative ones are rejected.
	Overrides *SpecOverrides `json:"overrides,omitempty"`
	// Model names the workload: bert-base, bert-large, mlp, resnet50,
	// vgg16, or mlp:IN,HIDDEN...,OUT.
	Model string `json:"model"`
	// Batch is the per-GPU batch size.
	Batch int `json:"batch"`
	// Iterations is the simulated iteration count, 1..65,536, and at
	// most 131,072 divided by the machine's node count.
	Iterations int `json:"iterations"`
	// Strategies lists the schemes to run; empty means all four.
	Strategies []string `json:"strategies,omitempty"`
	// ComputeJitter spreads per-worker compute speed (stragglers),
	// 0..1000.
	ComputeJitter float64 `json:"compute_jitter,omitempty"`
}

// maxIterations bounds Scenario.Iterations. The trainer sizes its
// per-iteration state up front (iterEnd, an end time per iteration, and
// on pipeline layouts pipeLatches, a boundary latch per worker,
// iteration and microbatch), so a count near math.MaxInt exhausts host
// memory before the first event. Its forward latches do not count: they
// are a ring of two iterations. 65,536 iterations is far past any
// experiment here: the paper's runs take a handful.
const maxIterations = 1 << 16

// maxComputeJitter bounds Scenario.ComputeJitter, under which the
// slowest worker computes (1+jitter)x slower than worker 0. Every
// compute time must fit the simulated clock (2^63 ns, ~292 years): the
// slowest preset iteration is ~8 s (vgg16 on t4 at the largest batch
// whose activations fit), and 1,001 x 8 s x maxIterations is ~5e8 s,
// a 17x margin; a jitter of 1e12 would wrap compute times negative.
const maxComputeJitter = 1000

// minGPUTFLOPS bounds overrides.gpu_tflops from below: compute time
// scales as 1/TFLOPS. The slowest preset iteration above is ~65 TFLOP
// of work (~8 s at T4's 8.1 TFLOPS), so at 1 TFLOPS it takes ~65 s,
// and 1,001 x 65 s x maxIterations is ~4.3e9 s, under half the clock;
// gpu_tflops 1e-12 wraps compute times negative.
const minGPUTFLOPS = 1

// minLinkGBps bounds the six *_gbps overrides from below: transfer
// time scales as 1/bandwidth. With every link class at 0.01 GB/s and
// the GPU at minGPUTFLOPS, the slowest one-node cells measured (vgg16
// at batch 128 and a 2-billion-parameter mlp, every strategy on t4,
// v100 and sdsc, compute jitter 1000) take at most ~2.6e4 s an
// iteration, ~1.7e9 s at maxIterations, a 5x margin; edge_gbps 1e-300
// wraps transfer times negative. Multi-node cells are bounded by
// maxNodeIterations.
const minLinkGBps = 0.01

// maxNodeIterations bounds iterations x server nodes (the multi
// preset's node count, 1 on the other presets). A multi-node cell's
// transfer time grows with the square of its node count: at the floors
// above, DENSE training the largest mlp a V100 holds (2.0e9
// parameters, jitter 0) takes 189 s an iteration on 2 nodes, 2.7e4 s
// on 32, 1.1e5 s on 64 and 4.2e5 s on 128, so past ~72 nodes
// maxIterations would pass the clock (128 nodes: ~2.8e10 s, which ends
// in "schedule at ... before now"). Under this bound an iteration's
// cost grows 4x per doubling of nodes while the iterations allowed
// halve: at the bound that cell runs to its end on 2, 16, 32, 64 and
// 128 nodes, the last in 4.3e8 s (1,024 iterations), a 21x margin. The
// forward latch table no longer scales with iterations (workers x 2 x
// layers at 16 B); iterEnd and pipeLatches still do, and are bounded
// with it.
const maxNodeIterations = 2 * maxIterations

// SpecOverrides are optional machine-parameter overrides, in the
// paper's units (GB/s for bandwidths, ns for latencies).
type SpecOverrides struct {
	EdgeGBps  float64 `json:"edge_gbps,omitempty"`
	PeerGBps  float64 `json:"peer_gbps,omitempty"`
	UpGBps    float64 `json:"up_gbps,omitempty"`
	HostGBps  float64 `json:"host_gbps,omitempty"`
	CCIGBps   float64 `json:"cci_gbps,omitempty"`
	NetGBps   float64 `json:"net_gbps,omitempty"`
	GPUMemGiB int64   `json:"gpu_mem_gib,omitempty"`
	GPUTFLOPS float64 `json:"gpu_tflops,omitempty"`
}

// Load reads a scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Read parses a scenario from JSON.
func Read(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the scenario's fields. It rejects every value that
// BuildSpec would otherwise ignore, clamp or wrap.
func (s *Scenario) Validate() error {
	spec, err := Machine(s.Machine, s.Nodes)
	if err != nil {
		return err
	}
	if err := s.Overrides.validate(); err != nil {
		return err
	}
	if _, err := Model(s.Model); err != nil {
		return err
	}
	if s.Batch < 1 {
		return fmt.Errorf("config: batch %d: want at least 1", s.Batch)
	}
	if s.Iterations < 1 || s.Iterations > maxIterations {
		return fmt.Errorf("config: iterations %d: want 1..%d", s.Iterations, maxIterations)
	}
	if nodes := max(spec.NodeCount, 1); s.Iterations*nodes > maxNodeIterations {
		return fmt.Errorf("config: iterations %d on %d nodes: want at most %d (iterations x nodes <= %d)",
			s.Iterations, nodes, maxNodeIterations/nodes, maxNodeIterations)
	}
	for _, st := range s.Strategies {
		if _, err := Strategy(st); err != nil {
			return err
		}
	}
	if !(s.ComputeJitter >= 0 && s.ComputeJitter <= maxComputeJitter) {
		return fmt.Errorf("config: compute jitter %v: want 0..%d", s.ComputeJitter, maxComputeJitter)
	}
	return nil
}

// validate rejects overrides below their floors (minLinkGBps,
// minGPUTFLOPS) other than 0, values that overflow once BuildSpec
// scales them to bytes (bandwidths by topology.GB, GPU memory by 1 GiB
// in an int64), and, for a scenario built in Go, NaN. A nil receiver
// has nothing to check.
func (o *SpecOverrides) validate() error {
	if o == nil {
		return nil
	}
	for _, f := range [...]struct {
		name     string
		v, floor float64
	}{
		{"edge_gbps", o.EdgeGBps, minLinkGBps},
		{"peer_gbps", o.PeerGBps, minLinkGBps},
		{"up_gbps", o.UpGBps, minLinkGBps},
		{"host_gbps", o.HostGBps, minLinkGBps},
		{"cci_gbps", o.CCIGBps, minLinkGBps},
		{"net_gbps", o.NetGBps, minLinkGBps},
		{"gpu_tflops", o.GPUTFLOPS, minGPUTFLOPS},
	} {
		if !(f.v == 0 || f.v >= f.floor) || math.IsInf(f.v*topology.GB, 0) {
			return fmt.Errorf("config: overrides.%s %v: want 0 (keeps the preset's) or a finite value >= %v", f.name, f.v, f.floor)
		}
	}
	if o.GPUMemGiB < 0 || o.GPUMemGiB > math.MaxInt64>>30 {
		return fmt.Errorf("config: overrides.gpu_mem_gib %d: want 0..%d (0 keeps the preset's)", o.GPUMemGiB, int64(math.MaxInt64>>30))
	}
	return nil
}

// BuildSpec constructs the machine spec with overrides applied. The
// scenario must have passed Validate.
func (s *Scenario) BuildSpec() topology.Spec {
	spec, _ := Machine(s.Machine, s.Nodes)
	if o := s.Overrides; o != nil {
		set := func(dst *float64, gbps float64) {
			if gbps > 0 {
				*dst = gbps * topology.GB
			}
		}
		set(&spec.EdgeBW, o.EdgeGBps)
		set(&spec.PeerBW, o.PeerGBps)
		set(&spec.UpBW, o.UpGBps)
		set(&spec.HostBW, o.HostGBps)
		set(&spec.CCIRingBW, o.CCIGBps)
		set(&spec.NetBW, o.NetGBps)
		if o.GPUMemGiB > 0 {
			spec.GPU.MemBytes = o.GPUMemGiB << 30
		}
		if o.GPUTFLOPS > 0 {
			spec.GPU.TFLOPS = o.GPUTFLOPS
		}
	}
	return spec
}

// BuildModel constructs the workload model.
func (s *Scenario) BuildModel() (*model.Model, error) { return Model(s.Model) }

// StrategyNames returns the scenario's strategies, defaulting to all.
func (s *Scenario) StrategyNames() []string {
	if len(s.Strategies) > 0 {
		return s.Strategies
	}
	return Strategies()
}
