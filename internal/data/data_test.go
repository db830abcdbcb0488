package data

import "testing"

func TestBlobsShapes(t *testing.T) {
	d := Blobs(1, 100, 8, 4, 3)
	if d.Len() != 100 || d.Dim() != 8 || d.Classes != 4 {
		t.Fatalf("len=%d dim=%d classes=%d", d.Len(), d.Dim(), d.Classes)
	}
	for _, y := range d.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestBlobsDeterministic(t *testing.T) {
	a := Blobs(42, 50, 4, 2, 3)
	b := Blobs(42, 50, 4, 2, 3)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("blobs nondeterministic")
			}
		}
	}
	c := Blobs(43, 50, 4, 2, 3)
	same := true
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != c.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBlobsClassBalance(t *testing.T) {
	d := Blobs(1, 100, 4, 4, 3)
	counts := map[int]int{}
	for _, y := range d.Y {
		counts[y]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] != 25 {
			t.Fatalf("class %d has %d samples, want 25", c, counts[c])
		}
	}
}

func TestShardPartitionsExactly(t *testing.T) {
	d := Blobs(1, 103, 4, 2, 3)
	total := 0
	seen := map[*[]float32]bool{}
	_ = seen
	for w := 0; w < 4; w++ {
		s := d.Shard(w, 4)
		total += s.Len()
	}
	if total != 103 {
		t.Fatalf("shards cover %d of 103 samples", total)
	}
}

func TestShardPreservesClassBalance(t *testing.T) {
	d := Blobs(1, 400, 4, 4, 3)
	s := d.Shard(1, 4)
	counts := map[int]int{}
	for _, y := range s.Y {
		counts[y]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] == 0 {
			t.Fatalf("shard missing class %d entirely", c)
		}
	}
}

func TestBatchWrapsAround(t *testing.T) {
	d := Blobs(1, 10, 2, 2, 3)
	xs, ys := d.Batch(3, 4) // offset 12 wraps
	if len(xs) != 4 || len(ys) != 4 {
		t.Fatalf("batch size %d/%d", len(xs), len(ys))
	}
	if &xs[0][0] != &d.X[12%10][0] {
		t.Fatal("wraparound indexing wrong")
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	d := Blobs(1, 10, 2, 2, 3)
	for name, fn := range map[string]func(){
		"bad blobs":      func() { Blobs(1, 0, 2, 2, 3) },
		"bad shard":      func() { d.Shard(4, 4) },
		"oversize batch": func() { d.Batch(0, 11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
