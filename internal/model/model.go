// Package model provides the DL models the paper trains — ResNet-50 on
// ImageNet-shaped inputs and BERT fine-tuning on SQuAD-shaped inputs —
// as per-layer parameter-tensor inventories with compute and activation
// footprints.
//
// What matters to parameter synchronization is the *distribution* of
// tensor sizes (many latency-critical small tensors, a few
// bandwidth-critical large ones — paper Section III-E), the total
// parameter volume, and the forward/backward compute time per layer.
// The builders therefore derive parameter counts, FLOPs and activation
// bytes from the real architectures' dimensions rather than quoting
// aggregate numbers.
package model

import "fmt"

// Layer is one parameter tensor plus the compute that produces its
// gradient. Models list layers in forward order; the backward pass emits
// gradients in reverse order (paper Section III-F).
type Layer struct {
	Name string
	// ParamElems is the number of float32 parameters in this tensor.
	ParamElems int
	// FwdFLOPs is the forward-pass floating point work attributable to
	// this layer, per sample.
	FwdFLOPs float64
	// ActBytes is the activation memory this layer retains per sample
	// for the backward pass.
	ActBytes int64
	// MoE marks a mixture-of-experts layer; nil (the common case) is a
	// dense layer. Expert-parallel layouts shard MoE parameters across
	// the EP dimension and drive all-to-all token exchanges from the
	// routing spec here (internal/parallel).
	MoE *MoE
}

// MoE describes a mixture-of-experts layer's routing shape: ParamElems
// covers all Experts experts together, and each of the Tokens tokens a
// sample carries routes to TopK distinct experts.
type MoE struct {
	Experts int
	TopK    int
	// Tokens is the per-sample token count entering the expert block
	// (the sequence length for transformer FFNs).
	Tokens int
}

// SizeBytes returns the parameter tensor size.
func (l Layer) SizeBytes() int64 { return int64(l.ParamElems) * 4 }

// Model is a named stack of layers.
type Model struct {
	Name   string
	Layers []Layer
}

// ParamElems returns the total parameter count.
func (m *Model) ParamElems() int {
	total := 0
	for _, l := range m.Layers {
		total += l.ParamElems
	}
	return total
}

// ParamBytes returns the total parameter volume in bytes — the "n" of
// the paper's dual-synchronization model (Section III-F).
func (m *Model) ParamBytes() int64 { return int64(m.ParamElems()) * 4 }

// FwdFLOPs returns total forward FLOPs per sample.
func (m *Model) FwdFLOPs() float64 {
	total := 0.0
	for _, l := range m.Layers {
		total += l.FwdFLOPs
	}
	return total
}

// ActBytes returns total retained activation bytes per sample.
func (m *Model) ActBytes() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.ActBytes
	}
	return total
}

func conv(name string, k, cin, cout, outH, outW int) []Layer {
	weight := Layer{
		Name:       name + ".w",
		ParamElems: k*k*cin*cout + cout,
		FwdFLOPs:   2 * float64(k*k*cin) * float64(outH*outW) * float64(cout),
		ActBytes:   int64(outH*outW*cout) * 4,
	}
	bn := Layer{
		Name:       name + ".bn",
		ParamElems: 2 * cout,
		FwdFLOPs:   4 * float64(outH*outW*cout),
		ActBytes:   int64(outH*outW*cout) * 4,
	}
	return []Layer{weight, bn}
}

func dense(name string, in, out int, actRows int) Layer {
	return Layer{
		Name:       name,
		ParamElems: in*out + out,
		FwdFLOPs:   2 * float64(in) * float64(out) * float64(actRows),
		// Both the input and the output activations are retained: the
		// weight gradient needs the input, the next layer's backward
		// needs the output.
		ActBytes: int64(actRows*(in+out)) * 4,
	}
}

// ResNet50 builds the ResNet-50 v1 parameter inventory for 224x224
// inputs: the conv stem, bottleneck stages [3,4,6,3] and the final
// classifier — about 25.6M parameters in ~160 tensors.
func ResNet50() *Model {
	var layers []Layer
	layers = append(layers, conv("stem", 7, 3, 64, 112, 112)...)

	stages := []struct {
		blocks, cin, cmid, cout, size int
	}{
		{3, 64, 64, 256, 56},
		{4, 256, 128, 512, 28},
		{6, 512, 256, 1024, 14},
		{3, 1024, 512, 2048, 7},
	}
	for si, st := range stages {
		cin := st.cin
		for b := 0; b < st.blocks; b++ {
			prefix := fmt.Sprintf("s%d.b%d", si+1, b)
			layers = append(layers, conv(prefix+".c1", 1, cin, st.cmid, st.size, st.size)...)
			layers = append(layers, conv(prefix+".c2", 3, st.cmid, st.cmid, st.size, st.size)...)
			layers = append(layers, conv(prefix+".c3", 1, st.cmid, st.cout, st.size, st.size)...)
			if b == 0 {
				layers = append(layers, conv(prefix+".down", 1, cin, st.cout, st.size, st.size)...)
			}
			cin = st.cout
		}
	}
	layers = append(layers, dense("fc", 2048, 1000, 1))
	return &Model{Name: "ResNet50", Layers: layers}
}

// bertEncoder appends one transformer encoder layer's tensors for the
// given hidden size and sequence length.
func bertEncoder(layers []Layer, prefix string, hidden, ffn, seq int) []Layer {
	for _, part := range []string{"q", "k", "v", "attn.out"} {
		layers = append(layers, dense(prefix+"."+part, hidden, hidden, seq))
	}
	// Attention score/context cost, attributed to the output projection:
	// 2 * seq^2 * hidden multiply-adds each way, with both the raw score
	// maps and the softmax probabilities retained per head for backward.
	heads := hidden / 64
	layers[len(layers)-1].FwdFLOPs += 4 * float64(seq*seq) * float64(hidden)
	layers[len(layers)-1].ActBytes += 2 * int64(seq*seq) * 4 * int64(heads)
	layers = append(layers, Layer{
		Name: prefix + ".ln1", ParamElems: 2 * hidden,
		FwdFLOPs: 8 * float64(seq*hidden), ActBytes: int64(seq*hidden) * 4,
	})
	ff1 := dense(prefix+".ff1", hidden, ffn, seq)
	ff1.ActBytes += int64(seq*ffn) * 4 // GELU keeps its pre-activation too
	layers = append(layers, ff1)
	layers = append(layers, dense(prefix+".ff2", ffn, hidden, seq))
	layers = append(layers, Layer{
		Name: prefix + ".ln2", ParamElems: 2 * hidden,
		FwdFLOPs: 8 * float64(seq*hidden), ActBytes: int64(seq*hidden) * 4,
	})
	return layers
}

func bert(name string, encoders, hidden, ffn, vocab, seq int) *Model {
	var layers []Layer
	layers = append(layers, Layer{
		Name:       "embed.word",
		ParamElems: vocab * hidden,
		FwdFLOPs:   float64(seq * hidden), // lookup + add
		ActBytes:   int64(seq*hidden) * 4,
	})
	layers = append(layers, Layer{
		Name:       "embed.pos",
		ParamElems: 512 * hidden,
		FwdFLOPs:   float64(seq * hidden),
		ActBytes:   int64(seq*hidden) * 4,
	})
	for i := 0; i < encoders; i++ {
		layers = bertEncoder(layers, fmt.Sprintf("enc%02d", i), hidden, ffn, seq)
	}
	layers = append(layers, dense("qa.head", hidden, 2, seq))
	return &Model{Name: name, Layers: layers}
}

// SQuADSeqLen is the sequence length used for BERT fine-tuning runs,
// matching the paper's SQuAD 1.1 setup.
const SQuADSeqLen = 384

// BERTBase builds BERT-Base (12 encoders, hidden 768) at SQuAD sequence
// length — about 110M parameters.
func BERTBase() *Model {
	return bert("BERT-Base", 12, 768, 3072, 30522, SQuADSeqLen)
}

// BERTLarge builds BERT-Large (24 encoders, hidden 1024) — about 335M
// parameters. This is the model whose optimizer state no longer fits
// GPU memory at batch 4 without COARSE's extended parameter storage
// (paper Figure 16e).
func BERTLarge() *Model {
	return bert("BERT-Large", 24, 1024, 4096, 30522, SQuADSeqLen)
}

// VGG16 builds VGG-16 — 138M parameters dominated by two huge dense
// tensors, the opposite tensor-size profile to ResNet.
func VGG16() *Model {
	var layers []Layer
	cfg := []struct{ n, cin, cout, size int }{
		{2, 3, 64, 224}, {2, 64, 128, 112}, {3, 128, 256, 56},
		{3, 256, 512, 28}, {3, 512, 512, 14},
	}
	for si, st := range cfg {
		cin := st.cin
		for b := 0; b < st.n; b++ {
			layers = append(layers, conv(fmt.Sprintf("c%d_%d", si+1, b+1), 3, cin, st.cout, st.size, st.size)[0])
			cin = st.cout
		}
	}
	layers = append(layers, dense("fc1", 512*7*7, 4096, 1))
	layers = append(layers, dense("fc2", 4096, 4096, 1))
	layers = append(layers, dense("fc3", 4096, 1000, 1))
	return &Model{Name: "VGG16", Layers: layers}
}

// MLP builds a small fully-connected network; tests use it because it
// simulates in microseconds.
func MLP(name string, sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("model: MLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i < len(sizes)-1; i++ {
		layers = append(layers, dense(fmt.Sprintf("fc%d", i+1), sizes[i], sizes[i+1], 1))
	}
	return &Model{Name: name, Layers: layers}
}

// MoETransformer builds a synthetic mixture-of-experts transformer:
// blocks of a dense attention layer followed by an MoE feed-forward
// layer of experts experts with top-k routing. Expert parameters
// dominate the inventory (the Switch-Transformer shape), which is what
// makes expert-parallel sharding worthwhile; compute per sample only
// touches topk of the experts, so FLOPs stay near the dense model's.
func MoETransformer(name string, blocks, hidden, ffn, experts, topk, seq int) *Model {
	if blocks < 1 || hidden < 1 || ffn < 1 || experts < 1 || topk < 1 || topk > experts || seq < 1 {
		panic("model: invalid MoE transformer shape")
	}
	var layers []Layer
	for b := 0; b < blocks; b++ {
		attn := dense(fmt.Sprintf("blk%02d.attn", b), hidden, hidden, seq)
		layers = append(layers, attn)
		moe := Layer{
			Name: fmt.Sprintf("blk%02d.moe", b),
			// Every expert is an hidden->ffn->hidden pair (plus biases).
			ParamElems: experts * (hidden*ffn + ffn + ffn*hidden + hidden),
			// Each token runs topk experts' pairs.
			FwdFLOPs: 4 * float64(hidden) * float64(ffn) * float64(seq) * float64(topk),
			// Input and combined output retained, plus the router's
			// dispatch indices (negligible, folded in).
			ActBytes: 2 * int64(seq*hidden) * 4,
			MoE:      &MoE{Experts: experts, TopK: topk, Tokens: seq},
		}
		layers = append(layers, moe)
	}
	return &Model{Name: name, Layers: layers}
}
