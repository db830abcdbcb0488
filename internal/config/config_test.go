package config

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coarse/internal/gpu"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func parse(t *testing.T, js string) *Scenario {
	t.Helper()
	s, err := Read(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMinimalScenario(t *testing.T) {
	s := parse(t, `{"machine":"v100","model":"bert-base","batch":2,"iterations":3}`)
	spec := s.BuildSpec()
	if spec.Label != "AWS V100" {
		t.Fatalf("label %q", spec.Label)
	}
	m, err := s.BuildModel()
	if err != nil || m.Name != "BERT-Base" {
		t.Fatalf("model %v %v", m, err)
	}
	if got := s.StrategyNames(); len(got) != 4 {
		t.Fatalf("default strategies = %v", got)
	}
}

func TestOverrides(t *testing.T) {
	s := parse(t, `{
		"machine":"sdsc","model":"resnet50","batch":8,"iterations":2,
		"overrides":{"edge_gbps":20,"up_gbps":10,"gpu_mem_gib":32,"gpu_tflops":20}
	}`)
	spec := s.BuildSpec()
	if spec.EdgeBW != 20*topology.GB || spec.UpBW != 10*topology.GB {
		t.Fatalf("bw overrides not applied: %v %v", spec.EdgeBW, spec.UpBW)
	}
	if spec.GPU.MemBytes != 32<<30 || spec.GPU.TFLOPS != 20 {
		t.Fatalf("gpu overrides not applied: %+v", spec.GPU)
	}
	// Untouched fields keep preset values.
	if spec.PeerBW != topology.SDSCP100().PeerBW {
		t.Fatal("unset override changed a field")
	}
}

func TestMLPModelSpec(t *testing.T) {
	s := parse(t, `{"machine":"t4","model":"mlp:64,32,10","batch":4,"iterations":2}`)
	m, err := s.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 2 || m.ParamElems() != 64*32+32+32*10+10 {
		t.Fatalf("mlp parse wrong: %d layers, %d params", len(m.Layers), m.ParamElems())
	}
}

func TestMultiNodePreset(t *testing.T) {
	s := parse(t, `{"machine":"multi","nodes":3,"model":"bert-large","batch":2,"iterations":2}`)
	if s.BuildSpec().NodeCount != 3 {
		t.Fatalf("nodes = %d", s.BuildSpec().NodeCount)
	}
}

func TestRejections(t *testing.T) {
	bad := []string{
		`{"machine":"nope","model":"bert-base","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"nope","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"bert-base","batch":0,"iterations":2}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":0}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["Nope"]}`,
		`{"machine":"v100","model":"mlp:","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"mlp:5","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"mlp:5,x","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"compute_jitter":-1}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"typo_field":1}`,
		`not json`,
	}
	for i, js := range bad {
		if _, err := Read(strings.NewReader(js)); err == nil {
			t.Errorf("case %d accepted: %s", i, js)
		}
	}
}

// largestMLP is the MLP spec with the most parameters Model accepts:
// (in+1)*out = maxParamElems.
const largestMLP = "mlp:144115188075855870,1"

// TestLargestMLPDoesNotFit: the largest accepted MLP builds a trainer
// under every strategy without wrapping a byte count, so each reports
// that it does not fit, at a small batch and at batches whose
// activations pass an int64.
func TestLargestMLPDoesNotFit(t *testing.T) {
	m, err := Model(largestMLP)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Machine("v100", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Strategies() {
		for _, batch := range []int{2, 16, 1 << 40} {
			strat, err := Strategy(name)
			if err != nil {
				t.Fatal(err)
			}
			if b := strat.WorkerStateBytes(m); b < m.ParamBytes() {
				t.Errorf("%s: worker state %d bytes wraps (parameters %d bytes)", name, b, m.ParamBytes())
			}
			_, err = train.New(train.DefaultConfig(spec, m, batch, 2), strat)
			if !errors.Is(err, gpu.ErrOOM) {
				t.Errorf("%s, batch %d: err = %v, want %v", name, batch, err, gpu.ErrOOM)
			}
		}
	}
}

// TestValidateRejectsIgnoredOrWrappedValues: every value BuildSpec
// would silently ignore, clamp or wrap is an error, and the boundary
// values on the accepted side still load.
func TestValidateRejectsIgnoredOrWrappedValues(t *testing.T) {
	const base = `"model":"bert-base","batch":2,"iterations":2`
	for _, tc := range []struct {
		name, js string
		ok       bool
	}{
		{"negative edge bandwidth", `{"machine":"v100",` + base + `,"overrides":{"edge_gbps":-5}}`, false},
		{"negative peer bandwidth", `{"machine":"v100",` + base + `,"overrides":{"peer_gbps":-1}}`, false},
		{"negative uplink bandwidth", `{"machine":"v100",` + base + `,"overrides":{"up_gbps":-0.5}}`, false},
		{"negative host bandwidth", `{"machine":"v100",` + base + `,"overrides":{"host_gbps":-2}}`, false},
		{"negative CCI bandwidth", `{"machine":"v100",` + base + `,"overrides":{"cci_gbps":-3}}`, false},
		{"negative network bandwidth", `{"machine":"multi",` + base + `,"overrides":{"net_gbps":-1}}`, false},
		{"bandwidth overflowing to +Inf B/s", `{"machine":"v100",` + base + `,"overrides":{"net_gbps":1e300}}`, false},
		{"negative TFLOPS", `{"machine":"v100",` + base + `,"overrides":{"gpu_tflops":-7}}`, false},
		{"negative GPU memory", `{"machine":"v100",` + base + `,"overrides":{"gpu_mem_gib":-1}}`, false},
		{"GPU memory wrapping to 0 bytes", `{"machine":"v100",` + base + `,"overrides":{"gpu_mem_gib":17179869184}}`, false},
		{"GPU memory one past int64", `{"machine":"v100",` + base + `,"overrides":{"gpu_mem_gib":8589934592}}`, false},
		{"largest GPU memory", `{"machine":"v100",` + base + `,"overrides":{"gpu_mem_gib":8589934591}}`, true},
		{"zero overrides keep the preset", `{"machine":"v100",` + base + `,"overrides":{"edge_gbps":0}}`, true},
		// Floors that keep every compute and transfer time on the
		// simulated clock.
		{"slowest link bandwidth", `{"machine":"v100",` + base + `,"overrides":{"edge_gbps":0.01,"peer_gbps":0.01,"up_gbps":0.01,"host_gbps":0.01,"cci_gbps":0.01}}`, true},
		{"slowest network bandwidth", `{"machine":"multi",` + base + `,"overrides":{"net_gbps":0.01}}`, true},
		{"edge bandwidth under the floor", `{"machine":"v100",` + base + `,"overrides":{"edge_gbps":0.0099}}`, false},
		{"edge bandwidth wrapping transfer times", `{"machine":"v100",` + base + `,"overrides":{"edge_gbps":1e-300}}`, false},
		{"peer bandwidth under the floor", `{"machine":"v100",` + base + `,"overrides":{"peer_gbps":0.001}}`, false},
		{"uplink bandwidth under the floor", `{"machine":"v100",` + base + `,"overrides":{"up_gbps":0.001}}`, false},
		{"host bandwidth under the floor", `{"machine":"v100",` + base + `,"overrides":{"host_gbps":0.001}}`, false},
		{"CCI bandwidth under the floor", `{"machine":"v100",` + base + `,"overrides":{"cci_gbps":0.001}}`, false},
		{"network bandwidth under the floor", `{"machine":"multi",` + base + `,"overrides":{"net_gbps":0.001}}`, false},
		{"slowest GPU", `{"machine":"v100",` + base + `,"overrides":{"gpu_tflops":1}}`, true},
		{"GPU under the floor", `{"machine":"v100",` + base + `,"overrides":{"gpu_tflops":0.99}}`, false},
		{"GPU wrapping compute times", `{"machine":"v100",` + base + `,"overrides":{"gpu_tflops":1e-12}}`, false},
		{"negative nodes", `{"machine":"multi","nodes":-3,` + base + `}`, false},
		{"one node", `{"machine":"multi","nodes":1,` + base + `}`, false},
		{"two nodes", `{"machine":"multi","nodes":2,` + base + `}`, true},
		{"largest node count", `{"machine":"multi","nodes":128,` + base + `}`, true},
		{"one node past the largest", `{"machine":"multi","nodes":129,` + base + `}`, false},
		{"two million nodes", `{"machine":"multi","nodes":2000000,` + base + `}`, false},
		{"nodes on a one-node preset", `{"machine":"v100","nodes":4,` + base + `}`, false},
		// (in+1)*out parameters per MLP layer, at most maxParamElems.
		{"largest mlp", `{"machine":"v100","model":"` + largestMLP + `","batch":2,"iterations":2}`, true},
		{"mlp one parameter past the largest", `{"machine":"v100","model":"mlp:144115188075855871,1","batch":2,"iterations":2}`, false},
		{"mlp whose parameter count wraps", `{"machine":"v100","model":"mlp:4000000000,4000000000,10","batch":2,"iterations":2}`, false},
		{"mlp whose layer width wraps", `{"machine":"v100","model":"mlp:9223372036854775807,1","batch":2,"iterations":2}`, false},
		// Iteration counts the trainer's per-iteration tables hold, and
		// jitter that keeps every compute time on the simulated clock.
		{"largest iteration count", `{"machine":"sdsc","model":"mlp:2,2","batch":2,"iterations":65536}`, true},
		{"one iteration past the largest", `{"machine":"sdsc","model":"mlp:2,2","batch":2,"iterations":65537}`, false},
		{"iterations exhausting host memory", `{"machine":"sdsc","model":"mlp:2,2","batch":2,"iterations":100000000000}`, false},
		// Iterations x nodes, which keeps multi-node cells at the floors
		// on the simulated clock.
		{"largest iteration count on two nodes", `{"machine":"multi","model":"mlp:2,2","batch":2,"iterations":65536}`, true},
		{"largest iteration count on three nodes", `{"machine":"multi","nodes":3,"model":"mlp:2,2","batch":2,"iterations":43690}`, true},
		{"one iteration past it on three nodes", `{"machine":"multi","nodes":3,"model":"mlp:2,2","batch":2,"iterations":43691}`, false},
		{"largest iteration count on 128 nodes", `{"machine":"multi","nodes":128,"model":"mlp:2,2","batch":2,"iterations":1024,"overrides":{"net_gbps":0.01}}`, true},
		{"one iteration past it on 128 nodes", `{"machine":"multi","nodes":128,"model":"mlp:2,2","batch":2,"iterations":1025,"overrides":{"net_gbps":0.01}}`, false},
		{"most iterations on 128 nodes", `{"machine":"multi","nodes":128,"model":"mlp:2,2","batch":2,"iterations":65536}`, false},
		{"largest compute jitter", `{"machine":"v100",` + base + `,"compute_jitter":1000}`, true},
		{"compute jitter past the largest", `{"machine":"v100",` + base + `,"compute_jitter":1000.0001}`, false},
		{"compute jitter wrapping compute times", `{"machine":"v100",` + base + `,"compute_jitter":1e12}`, false},
	} {
		s, err := Read(strings.NewReader(tc.js))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok {
			spec := s.BuildSpec()
			if spec.GPU.MemBytes <= 0 || spec.EdgeBW <= 0 {
				t.Errorf("%s: spec has MemBytes %d, EdgeBW %g", tc.name, spec.GPU.MemBytes, spec.EdgeBW)
			}
			if m, err := s.BuildModel(); err != nil || m.ParamBytes() <= 0 {
				t.Errorf("%s: model %v, err %v", tc.name, m, err)
			}
		}
	}
}

// FuzzScenarioRead: any byte input ends in a scenario or an error,
// never a panic, and an accepted scenario builds a machine whose
// capacities are positive and whose model resolves.
func FuzzScenarioRead(f *testing.F) {
	for _, js := range []string{
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":3}`,
		`{"machine":"multi","nodes":3,"model":"mlp:64,32,10","batch":4,"iterations":2,"strategies":["COARSE","DENSE"],"compute_jitter":0.1}`,
		`{"machine":"sdsc","model":"resnet50","batch":8,"iterations":2,"overrides":{"edge_gbps":20,"gpu_mem_gib":32,"gpu_tflops":20}}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"overrides":{"gpu_mem_gib":17179869184}}`,
		`{"machine":"multi","nodes":-3,"model":"vgg16","batch":1,"iterations":1}`,
		`{"machine":"v100","model":"vgg16","batch":1,"iterations":1,"overrides":{"host_gbps":1e300}}`,
		`{"machine":"v100","model":"mlp:5,x","batch":2,"iterations":2}`,
		`{"machine":"v100","model":"mlp:4000000000,4000000000,10","batch":2,"iterations":2}`,
		`{"machine":"multi","nodes":2000000,"model":"vgg16","batch":1,"iterations":1}`,
		`{"machine":"sdsc","model":"mlp:2,2","batch":2,"iterations":100000000000}`,
		`{"machine":"sdsc","model":"mlp:2,2","batch":2,"iterations":65536,"compute_jitter":1000}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"compute_jitter":1e12}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["COARSE"],"overrides":{"gpu_tflops":1e-12}}`,
		`{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["COARSE"],"overrides":{"edge_gbps":1e-300}}`,
		`{"machine":"t4","model":"vgg16","batch":128,"iterations":65536,"compute_jitter":1000,"overrides":{"edge_gbps":0.01,"peer_gbps":0.01,"up_gbps":0.01,"host_gbps":0.01,"cci_gbps":0.01,"gpu_tflops":1}}`,
		`{"machine":"multi","nodes":128,"model":"mlp:44721,44721,10","batch":1,"iterations":1024,"strategies":["DENSE"],"overrides":{"edge_gbps":0.01,"peer_gbps":0.01,"up_gbps":0.01,"host_gbps":0.01,"cci_gbps":0.01,"net_gbps":0.01,"gpu_tflops":1}}`,
		`{"machine":"multi","nodes":64,"model":"mlp:44721,44721,10","batch":1,"iterations":65536,"strategies":["DENSE"],"overrides":{"net_gbps":0.01}}`,
		`{"machine":"v100"} trailing`,
		`not json`,
		``,
	} {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if (s == nil) == (err == nil) {
			t.Fatalf("Read returned scenario %v and error %v", s, err)
		}
		if err != nil {
			return
		}
		spec := s.BuildSpec()
		if spec.GPU.MemBytes <= 0 || spec.GPU.TFLOPS <= 0 {
			t.Fatalf("accepted scenario builds GPU %+v", spec.GPU)
		}
		for _, bw := range []float64{spec.EdgeBW, spec.PeerBW, spec.UpBW, spec.HostBW, spec.CCIRingBW, spec.NetBW} {
			if bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
				t.Fatalf("accepted scenario builds bandwidth %g", bw)
			}
		}
		m, err := s.BuildModel()
		if err != nil {
			t.Fatalf("accepted scenario's model fails: %v", err)
		}
		if m.ParamBytes() <= 0 {
			t.Fatalf("accepted scenario's model holds %d parameter bytes", m.ParamBytes())
		}
		if spec.NodeCount > maxNodes {
			t.Fatalf("accepted scenario builds %d nodes", spec.NodeCount)
		}
		if s.Iterations > maxIterations || s.Iterations*max(spec.NodeCount, 1) > maxNodeIterations || s.ComputeJitter > maxComputeJitter {
			t.Fatalf("accepted scenario runs %d iterations on %d nodes at jitter %g", s.Iterations, spec.NodeCount, s.ComputeJitter)
		}
		if spec.GPU.TFLOPS < minGPUTFLOPS {
			t.Fatalf("accepted scenario builds a %g TFLOPS GPU", spec.GPU.TFLOPS)
		}
		for _, bw := range []float64{spec.EdgeBW, spec.PeerBW, spec.UpBW, spec.HostBW, spec.CCIRingBW, spec.NetBW} {
			if bw > 0 && bw < minLinkGBps*topology.GB {
				t.Fatalf("accepted scenario builds bandwidth %g B/s", bw)
			}
		}
	})
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	js := `{"machine":"v100","model":"resnet50","batch":16,"iterations":2,"strategies":["COARSE"]}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.StrategyNames()[0] != "COARSE" {
		t.Fatalf("strategies = %v", s.StrategyNames())
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestEveryListedNameResolves: each name the table lists builds its
// machine, model or strategy, the lists are sorted (strategies keep the
// figures' order), and an unknown name is an error naming every
// accepted one in that order.
func TestEveryListedNameResolves(t *testing.T) {
	machines := MachineNames()
	if want := []string{"multi", "sdsc", "t4", "v100", "v100-2to1", "v100-nvlink"}; strings.Join(machines, ",") != strings.Join(want, ",") {
		t.Errorf("MachineNames() = %v, want %v", machines, want)
	}
	for _, name := range machines {
		spec, err := Machine(name, 0)
		if err != nil || spec.Label == "" || spec.GPU.MemBytes <= 0 {
			t.Errorf("Machine(%q) = %q, %v", name, spec.Label, err)
		}
	}
	if spec, err := Machine("multi", 3); err != nil || spec.NodeCount != 3 {
		t.Errorf("Machine(multi, 3): %d nodes, %v", spec.NodeCount, err)
	}

	models := ModelNames()
	if want := []string{"bert-base", "bert-large", "mlp", "resnet50", "vgg16"}; strings.Join(models, ",") != strings.Join(want, ",") {
		t.Errorf("ModelNames() = %v, want %v", models, want)
	}
	for _, name := range append(models, "mlp:64,32,10") {
		if m, err := Model(name); err != nil || m.ParamElems() <= 0 {
			t.Errorf("Model(%q): %v", name, err)
		}
	}

	strategies := Strategies()
	if want := []string{"CentralPS", "DENSE", "AllReduce", "COARSE"}; strings.Join(strategies, ",") != strings.Join(want, ",") {
		t.Errorf("Strategies() = %v, want %v", strategies, want)
	}
	for _, name := range strategies {
		s, err := Strategy(name)
		if err != nil || s.Name() != name {
			t.Errorf("Strategy(%q) = %v, %v", name, s, err)
		}
	}
	a, _ := Strategy("COARSE")
	b, _ := Strategy("COARSE")
	if a == b {
		t.Error("Strategy returned a shared instance")
	}

	for _, tc := range []struct {
		err  error
		want string
	}{
		{func() error { _, err := Machine("nope", 0); return err }(), `config: unknown machine "nope" (have multi, sdsc, t4, v100, v100-2to1, v100-nvlink)`},
		{func() error { _, err := Model("nope"); return err }(), `config: unknown model "nope" (have bert-base, bert-large, mlp, resnet50, vgg16, mlp:IN,HIDDEN...,OUT)`},
		{func() error { _, err := Strategy("nope"); return err }(), `config: unknown strategy "nope" (have AllReduce, COARSE, CentralPS, DENSE)`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error %v, want %q", tc.err, tc.want)
		}
	}
}
