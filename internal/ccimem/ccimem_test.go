package ccimem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowLayout(t *testing.T) {
	s := NewSpace()
	a := s.AddDevice("dev0", 1<<30)
	b := s.AddDevice("dev1", 1<<30)
	if a.Base != 0 || b.Base != 1<<WindowBits {
		t.Fatalf("bases %#x/%#x", uint64(a.Base), uint64(b.Base))
	}
	if len(s.Devices()) != 2 {
		t.Fatal("device count")
	}
}

func TestAllocFirstFit(t *testing.T) {
	s := NewSpace()
	d := s.AddDevice("dev0", 1000)
	r1, err := d.Alloc(300)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Alloc(300)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Addr != d.Base || r2.Addr != d.Base+300 {
		t.Fatalf("addrs %#x %#x", uint64(r1.Addr), uint64(r2.Addr))
	}
	// Free the first region; the next fitting alloc reuses its hole.
	r1.Free()
	r3, err := d.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Addr != d.Base {
		t.Fatalf("first-fit did not reuse the hole: %#x", uint64(r3.Addr))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	s := NewSpace()
	d := s.AddDevice("dev0", 1000)
	if _, err := d.Alloc(1001); err == nil {
		t.Fatal("over-capacity alloc succeeded")
	}
	if _, err := d.Alloc(0); err == nil {
		t.Fatal("zero alloc succeeded")
	}
	r, _ := d.Alloc(1000)
	if _, err := d.Alloc(1); err == nil {
		t.Fatal("alloc on full device succeeded")
	}
	r.Free()
	if _, err := d.Alloc(1000); err != nil {
		t.Fatalf("re-alloc after free failed: %v", err)
	}

	// A size that would wrap off+size negative must not fit either, and
	// a span whose end wraps must not pass the invariant check.
	s = NewSpace()
	d = s.AddDevice("dev1", 1000)
	if _, err := d.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(math.MaxInt64); err == nil {
		t.Fatalf("alloc of MaxInt64 after 100 bytes succeeded (used %d)", d.Used())
	}
	if d.Used() != 100 {
		t.Fatalf("used %d, want 100", d.Used())
	}
	d.allocs = append(d.allocs, span{off: 100, size: math.MaxInt64})
	if err := d.CheckInvariants(); err == nil {
		t.Fatal("span running past capacity with a wrapped end passed CheckInvariants")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewSpace()
	d := s.AddDevice("dev0", 1000)
	r, _ := d.Alloc(100)
	r.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Free()
}

func TestRegionsIsolatedAcrossDevices(t *testing.T) {
	s := NewSpace()
	d0 := s.AddDevice("dev0", 1<<20)
	d1 := s.AddDevice("dev1", 1<<20)
	r0, _ := d0.Alloc(1024)
	r1, _ := d1.Alloc(1024)
	if r0.Addr != d0.Base || r1.Addr != d1.Base {
		t.Fatalf("regions at %#x/%#x, want their windows' bases", uint64(r0.Addr), uint64(r1.Addr))
	}
	if d0.Used() != 1024 || d1.Used() != 1024 {
		t.Fatalf("used %d/%d, want 1024 each", d0.Used(), d1.Used())
	}
	if r0.Device() != d0 || r1.Device() != d1 {
		t.Fatal("region ownership wrong")
	}
}

func TestBadDevicePanics(t *testing.T) {
	for _, capacity := range []int64{0, -1, WindowSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: expected panic", capacity)
				}
			}()
			NewSpace().AddDevice("bad", capacity)
		}()
	}
}

// Property: random alloc/free sequences keep the allocator's invariants
// and never hand out overlapping regions.
func TestPropertyAllocatorInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace()
		d := s.AddDevice("dev0", 4096)
		var live []*Region
		ops := int(opsRaw)%150 + 20
		for i := 0; i < ops; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				size := int64(r.Intn(512) + 1)
				reg, err := d.Alloc(size)
				if err == nil {
					live = append(live, reg)
				}
			} else {
				idx := r.Intn(len(live))
				live[idx].Free()
				live = append(live[:idx], live[idx+1:]...)
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		// No two live regions overlap.
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.Addr < b.Addr+Addr(b.Size) && b.Addr < a.Addr+Addr(a.Size) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
