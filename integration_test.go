package coarse

// Integration tests: cross-module scenarios through the public API.

import (
	"testing"

	"coarse/internal/tensor"
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
	// The public Tensor alias is the internal tensor type: values flow
	// both ways without conversion.
	var x *Tensor = tensor.New("w", 2)
	x.Data[1] = 2
	if x.Len() != 2 || x.SizeBytes() != 2*tensor.BytesPerElem {
		t.Fatalf("alias broken: %d elems, %d bytes", x.Len(), x.SizeBytes())
	}
	tensor.AddSlice(x.Data, []float32{1, 1})
	if x.Data[0] != 1 || x.Data[1] != 3 {
		t.Fatalf("alias broken: %v", x.Data)
	}
}
