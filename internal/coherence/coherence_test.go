package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFirstReadIsExclusive(t *testing.T) {
	d := NewDirectory(64)
	c := d.NewCache()
	c.Read(0)
	if c.StateOf(0) != Exclusive {
		t.Fatalf("state = %v, want E", c.StateOf(0))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	d := NewDirectory(64)
	a, b := d.NewCache(), d.NewCache()
	a.Read(0)
	b.Read(0)
	if a.StateOf(0) != Shared || b.StateOf(0) != Shared {
		t.Fatalf("states = %v/%v, want S/S", a.StateOf(0), b.StateOf(0))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := NewDirectory(64)
	a, b, c := d.NewCache(), d.NewCache(), d.NewCache()
	a.Read(0)
	b.Read(0)
	c.Read(0)
	before := d.Stats().Invalidations
	a.Write(0, 42)
	if a.StateOf(0) != Modified {
		t.Fatalf("writer state = %v, want M", a.StateOf(0))
	}
	if b.StateOf(0) != Invalid || c.StateOf(0) != Invalid {
		t.Fatal("sharers not invalidated")
	}
	if d.Stats().Invalidations-before != 2 {
		t.Fatalf("invalidations = %d, want 2", d.Stats().Invalidations-before)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSilentExclusiveUpgrade(t *testing.T) {
	d := NewDirectory(64)
	a := d.NewCache()
	a.Read(0) // E
	msgs := d.Stats().ControlMsgs
	a.Write(0, 1) // E -> M, no traffic
	if d.Stats().ControlMsgs != msgs {
		t.Fatal("E->M upgrade generated control traffic")
	}
	if a.StateOf(0) != Modified {
		t.Fatalf("state = %v, want M", a.StateOf(0))
	}
}

func TestReadAfterRemoteWriteReturnsNewValue(t *testing.T) {
	d := NewDirectory(64)
	a, b := d.NewCache(), d.NewCache()
	a.Write(0, 7)
	if got := b.Read(0); got != 7 {
		t.Fatalf("b.Read = %d, want 7", got)
	}
	// a was M; the read must have caused a writeback and downgrade.
	if a.StateOf(0) != Shared || b.StateOf(0) != Shared {
		t.Fatalf("states = %v/%v, want S/S", a.StateOf(0), b.StateOf(0))
	}
	if d.Stats().Writebacks == 0 {
		t.Fatal("dirty read-forward produced no writeback")
	}
}

func TestWriteStealsOwnership(t *testing.T) {
	d := NewDirectory(64)
	a, b := d.NewCache(), d.NewCache()
	a.Write(0, 1)
	b.Write(0, 2)
	if a.StateOf(0) != Invalid {
		t.Fatalf("old owner state = %v, want I", a.StateOf(0))
	}
	if b.StateOf(0) != Modified {
		t.Fatalf("new owner state = %v, want M", b.StateOf(0))
	}
	if got := a.Read(0); got != 2 {
		t.Fatalf("a.Read = %d, want 2", got)
	}
}

func TestEvictDirtyWritesBack(t *testing.T) {
	d := NewDirectory(64)
	a, b := d.NewCache(), d.NewCache()
	a.Write(0, 9)
	a.Evict(0)
	if a.StateOf(0) != Invalid {
		t.Fatal("evicted line still present")
	}
	if got := b.Read(0); got != 9 {
		t.Fatalf("value lost on eviction: got %d, want 9", got)
	}
}

func TestEvictInvalidIsNoop(t *testing.T) {
	d := NewDirectory(64)
	a := d.NewCache()
	a.Evict(0)
	if d.Stats().ControlMsgs != 0 {
		t.Fatal("evicting an absent line generated traffic")
	}
}

func TestReadHitGeneratesNoTraffic(t *testing.T) {
	d := NewDirectory(64)
	a := d.NewCache()
	a.Read(0)
	d.ResetStats()
	a.Read(0)
	s := d.Stats()
	if s.ControlMsgs != 0 || s.DataMsgs != 0 || s.ReadHits != 1 {
		t.Fatalf("read hit stats = %+v", s)
	}
}

func TestCoherenceTrafficGrowsWithSharers(t *testing.T) {
	// The motivation for COARSE's decentralization (Section III-D):
	// traffic per writeround grows with the number of sharers.
	traffic := func(sharers int) int64 {
		d := NewDirectory(64)
		caches := make([]*Cache, sharers)
		for i := range caches {
			caches[i] = d.NewCache()
		}
		writer := d.NewCache()
		for round := 0; round < 10; round++ {
			for addr := LineAddr(0); addr < 64; addr++ {
				for _, c := range caches {
					c.Read(addr)
				}
				writer.Write(addr, uint64(round))
			}
		}
		return d.Stats().TrafficBytes(64)
	}
	prev := int64(0)
	for _, n := range []int{1, 2, 4, 8} {
		got := traffic(n)
		if got <= prev {
			t.Fatalf("traffic with %d sharers = %d, not greater than %d", n, got, prev)
		}
		prev = got
	}
}

// TestDENSEExchangePattern runs the DENSE parameter flow of Figure 5 on
// the directory: workers write gradient lines into disjoint slots, the
// server reads every slot and writes the parameter lines, and every
// worker reads those back. From the second iteration on, the server's
// write hits lines that every worker holds Shared and invalidates each
// copy; the reads move data. Every read returns the last value written
// and SWMR holds throughout.
func TestDENSEExchangePattern(t *testing.T) {
	const workers, slot = 4, 16 // lines per worker slot and for the parameters
	d := NewDirectory(64)
	caches := make([]*Cache, workers+1)
	for i := range caches {
		caches[i] = d.NewCache()
	}
	server := caches[workers]
	params := LineAddr(workers * slot)
	last := make([]uint64, params+slot) // reference model: last value per line
	write := func(c *Cache, addr LineAddr) {
		last[addr]++
		c.Write(addr, last[addr])
	}
	read := func(c *Cache, addr LineAddr) {
		if got := c.Read(addr); got != last[addr] {
			t.Fatalf("cache %d read %d from line %d, want %d", c.ID(), got, addr, last[addr])
		}
	}
	for iter := 1; iter <= 2; iter++ {
		for w := 0; w < workers; w++ {
			for l := LineAddr(0); l < slot; l++ {
				write(caches[w], LineAddr(w)*slot+l)
			}
		}
		for addr := LineAddr(0); addr < params; addr++ {
			read(server, addr)
		}
		before := d.Stats().Invalidations
		for l := LineAddr(0); l < slot; l++ {
			write(server, params+l)
		}
		if inval := d.Stats().Invalidations - before; iter > 1 && inval != workers*slot {
			t.Fatalf("iter %d: the parameter write invalidated %d copies, want %d", iter, inval, workers*slot)
		}
		for w := 0; w < workers; w++ {
			for l := LineAddr(0); l < slot; l++ {
				read(caches[w], params+l)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
	if st := d.Stats(); st.DataMsgs == 0 || st.Writebacks == 0 {
		t.Fatalf("exchange moved no data: %+v", st)
	}
}

func TestStatsAddAndTrafficBytes(t *testing.T) {
	var a, b Stats
	a.ControlMsgs, a.DataMsgs = 3, 2
	b.ControlMsgs, b.DataMsgs = 1, 1
	a.Add(b)
	if a.ControlMsgs != 4 || a.DataMsgs != 3 {
		t.Fatalf("Add: %+v", a)
	}
	if got := a.TrafficBytes(64); got != 4*8+3*64 {
		t.Fatalf("TrafficBytes = %d", got)
	}
}

func TestBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDirectory(0)
}

// Property: under arbitrary interleavings of reads and writes from up to
// 8 caches over 16 lines, (1) SWMR holds after every operation, and (2)
// every read returns the last value written to that line.
func TestPropertyProtocolCorrectness(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDirectory(64)
		caches := make([]*Cache, 8)
		for i := range caches {
			caches[i] = d.NewCache()
		}
		last := make(map[LineAddr]uint64) // reference model
		ops := int(opsRaw%512) + 32
		for i := 0; i < ops; i++ {
			c := caches[r.Intn(len(caches))]
			addr := LineAddr(r.Intn(16))
			switch r.Intn(3) {
			case 0:
				val := uint64(i) + 1
				c.Write(addr, val)
				last[addr] = val
			case 1:
				if got := c.Read(addr); got != last[addr] {
					return false
				}
			case 2:
				c.Evict(addr)
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoherentWriteRound(b *testing.B) {
	d := NewDirectory(64)
	caches := make([]*Cache, 8)
	for i := range caches {
		caches[i] = d.NewCache()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for addr := LineAddr(0); addr < 64; addr++ {
			for _, c := range caches {
				c.Read(addr)
			}
			caches[0].Write(addr, uint64(i))
		}
	}
}
