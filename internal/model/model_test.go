package model

import (
	"sort"
	"testing"
)

func TestResNet50ParamCount(t *testing.T) {
	m := ResNet50()
	// ResNet-50 has ~25.6M parameters; the inventory (conv+BN+fc, biases
	// folded into conv tensors) must land within a few percent.
	got := m.ParamElems()
	if got < 25_000_000 || got > 27_000_000 {
		t.Fatalf("ResNet50 params = %d, want ~25.6M", got)
	}
	if len(m.Layers) < 100 {
		t.Fatalf("ResNet50 has %d tensors, want >100 (many small BN tensors)", len(m.Layers))
	}
}

func TestBERTBaseParamCount(t *testing.T) {
	got := BERTBase().ParamElems()
	if got < 105_000_000 || got > 115_000_000 {
		t.Fatalf("BERT-Base params = %d, want ~110M", got)
	}
}

func TestBERTLargeParamCount(t *testing.T) {
	got := BERTLarge().ParamElems()
	if got < 325_000_000 || got > 345_000_000 {
		t.Fatalf("BERT-Large params = %d, want ~335M", got)
	}
}

func TestVGG16ParamCount(t *testing.T) {
	got := VGG16().ParamElems()
	if got < 132_000_000 || got > 144_000_000 {
		t.Fatalf("VGG16 params = %d, want ~138M", got)
	}
}

func TestResNetFLOPs(t *testing.T) {
	// ResNet-50 forward is ~4 GFLOPs (counting multiply-adds as 2 ops,
	// ~8.2 GFLOP-ops) per 224x224 image.
	got := ResNet50().FwdFLOPs()
	if got < 6e9 || got > 10e9 {
		t.Fatalf("ResNet50 fwd FLOPs = %.3g, want ~8e9", got)
	}
}

func TestBERTFLOPsScaleWithSeq(t *testing.T) {
	base := bert("b", 12, 768, 3072, 30522, 128).FwdFLOPs()
	long := bert("b", 12, 768, 3072, 30522, 384).FwdFLOPs()
	if long <= 2.5*base {
		t.Fatalf("seq 384 FLOPs (%.3g) should be >2.5x seq 128 (%.3g)", long, base)
	}
}

// paperModels are the evaluation models, keyed by the names the
// paper's figures use.
func paperModels() map[string]*Model {
	return map[string]*Model{
		"ResNet50":   ResNet50(),
		"BERT-Base":  BERTBase(),
		"BERT-Large": BERTLarge(),
		"VGG16":      VGG16(),
	}
}

func TestTensorSizeDistributionIsNonUniform(t *testing.T) {
	// Paper Section III-E: "small-size parameter communication (less
	// than 2MB) is latency-critical... transfer of large-size parameters
	// is bandwidth critical". The models must exhibit both classes.
	for name, m := range paperModels() {
		small, large := 0, 0
		for _, l := range m.Layers {
			if l.SizeBytes() < 2<<20 {
				small++
			} else {
				large++
			}
		}
		if small == 0 || large == 0 {
			t.Errorf("%s: %d small / %d large tensors — need a mixed distribution", name, small, large)
		}
	}
}

func TestBERTDominatedByLargeTensors(t *testing.T) {
	var sizes []int64
	for _, l := range BERTBase().Layers {
		sizes = append(sizes, l.SizeBytes())
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	var top, total int64
	for i, s := range sizes {
		if i < len(sizes)/4 {
			top += s
		}
		total += s
	}
	if float64(top)/float64(total) < 0.55 {
		t.Fatalf("top quartile holds %.0f%% of bytes, want >55%%", 100*float64(top)/float64(total))
	}
}

func TestActivationBytesPositive(t *testing.T) {
	for name, m := range paperModels() {
		if m.ActBytes() <= 0 {
			t.Errorf("%s: non-positive activation bytes", name)
		}
		// Activations must dwarf a single sample's input.
		if m.ActBytes() < 1<<20 {
			t.Errorf("%s: activations %d bytes implausibly small", name, m.ActBytes())
		}
	}
}

func TestBERTLargeMemoryShape(t *testing.T) {
	// The figure-16e premise: BERT-Large weights+grads+Adam state is
	// ~5.4 GB, activations per sample are on the order of a gigabyte, so
	// batch 4 with full optimizer state on a 16 GB GPU does not fit, but
	// dropping the optimizer state to CCI memory makes it fit.
	m := BERTLarge()
	stateBytes := m.ParamBytes() * 4 // w, g, adam m, adam v
	if stateBytes < int64(5e9) || stateBytes > int64(6e9) {
		t.Fatalf("BERT-Large full training state = %.2f GB, want ~5.4", float64(stateBytes)/1e9)
	}
	// ~1-1.8 GB/sample of fp32 activations at seq 384 with no activation
	// checkpointing; the trainer's memory model applies the framework
	// overhead factor on top.
	act := m.ActBytes()
	if act < int64(1.0e9) || act > int64(1.8e9) {
		t.Fatalf("BERT-Large activations/sample = %.2f GB, want 1.0-1.8", float64(act)/1e9)
	}
}

func TestMLP(t *testing.T) {
	m := MLP("tiny", 4, 8, 2)
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(m.Layers))
	}
	if m.ParamElems() != 4*8+8+8*2+2 {
		t.Fatalf("params = %d", m.ParamElems())
	}
}

func TestMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP("bad", 4)
}

func TestLayerSizeBytes(t *testing.T) {
	l := Layer{ParamElems: 100}
	if l.SizeBytes() != 400 {
		t.Fatalf("SizeBytes = %d", l.SizeBytes())
	}
}
