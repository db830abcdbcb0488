package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomTensor(name string, n int, seed int64) *Tensor {
	r := rand.New(rand.NewSource(seed))
	t := New(name, n)
	for i := range t.Data {
		t.Data[i] = r.Float32()*2 - 1
	}
	return t
}

func TestNewIsZeroFilled(t *testing.T) {
	x := New("w", 100)
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
	if x.Len() != 100 || x.SizeBytes() != 400 {
		t.Fatalf("Len=%d SizeBytes=%d", x.Len(), x.SizeBytes())
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("w", -1)
}

func TestCloneIsDeep(t *testing.T) {
	a := randomTensor("w", 10, 1)
	b := a.Clone()
	b.Data[0] = 42
	if a.Data[0] == 42 {
		t.Fatal("Clone shares storage")
	}
	if a.Name != b.Name {
		t.Fatal("Clone lost name")
	}
}

func TestAddAndScale(t *testing.T) {
	a := New("a", 4)
	b := New("b", 4)
	for i := range a.Data {
		a.Data[i] = float32(i)
		b.Data[i] = 10
	}
	a.Add(b)
	a.Scale(0.5)
	want := []float32{5, 5.5, 6, 6.5}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("a = %v, want %v", a.Data, want)
		}
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("a", 4).Add(New("b", 5))
}

func TestAXPY(t *testing.T) {
	w := New("w", 3)
	w.Fill(1)
	g := New("g", 3)
	g.Fill(2)
	w.AXPY(-0.5, g) // w -= 0.5 * g
	for _, v := range w.Data {
		if v != 0 {
			t.Fatalf("w = %v, want zeros", w.Data)
		}
	}
}

// Property: AddSlice is commutative in aggregate — summing two tensors
// slice by slice equals summing them whole.
func TestPropertyShardedAddEqualsWholeAdd(t *testing.T) {
	f := func(seed int64) bool {
		a := randomTensor("a", 1024, seed)
		b := randomTensor("a", 1024, seed+1)
		whole := a.Clone()
		whole.Add(b)
		for lo := 0; lo < 1024; lo += 512 {
			AddSlice(a.Data[lo:lo+512], b.Data[lo:lo+512])
		}
		return MaxAbsDiff(a, whole) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddSlice(b *testing.B) {
	dst := make([]float32, 1<<20)
	src := make([]float32, 1<<20)
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddSlice(dst, src)
	}
}
