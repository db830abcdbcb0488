package optim

import "testing"

func TestSGDStep(t *testing.T) {
	s := SGD{LR: 0.5}
	p := []float32{1, 2}
	s.Step(p, []float32{2, -2})
	if p[0] != 0 || p[1] != 3 {
		t.Fatalf("p = %v", p)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SGD{LR: 0.1}.Step([]float32{1}, []float32{1, 2})
}
