package tensor

import (
	"math/rand"
	"slices"
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

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddSlice(New("a", 4).Data, New("b", 5).Data)
}

// Property: AddSlice is commutative in aggregate — summing two tensors
// slice by slice equals summing them whole.
func TestPropertyShardedAddEqualsWholeAdd(t *testing.T) {
	f := func(seed int64) bool {
		a := randomTensor("a", 1024, seed)
		b := randomTensor("a", 1024, seed+1)
		whole := append([]float32(nil), a.Data...)
		AddSlice(whole, b.Data)
		for lo := 0; lo < 1024; lo += 512 {
			AddSlice(a.Data[lo:lo+512], b.Data[lo:lo+512])
		}
		return slices.Equal(a.Data, whole)
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
