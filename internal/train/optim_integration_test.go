package train

import (
	"testing"

	"coarse/internal/model"
	"coarse/internal/topology"
)

func TestPreviewUpdateSGDExact(t *testing.T) {
	cfg := DefaultConfig(topology.SDSCP100(), model.MLP("p", 4, 2), 2, 1)
	cfg.Numeric = true
	tr, err := New(cfg, NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	ctx := tr.Ctx()
	ctx.Params[0][0].Fill(1)
	ctx.Grads[0][0].Fill(2)
	got := ctx.PreviewUpdate(0, 0)
	want := 1 - learningRate*2
	for _, v := range got {
		if v != want {
			t.Fatalf("preview = %v, want %v", v, want)
		}
	}
	// The preview must not mutate the live parameters.
	if ctx.Params[0][0].Data[0] != 1 {
		t.Fatal("preview mutated params")
	}
}
