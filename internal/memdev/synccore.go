package memdev

import (
	"fmt"

	"coarse/internal/sim"
)

// AllReduceDetailed runs the same group synchronization as
// AllReduceBytes but at the chunk granularity of Figure 11c: each sync
// core streams BufEntries-sized chunks from DRAM into LocalBuf, runs
// the ring iterations per chunk, and writes results back — a three
// stage pipeline (load → ring → writeback) in which chunk k+1's DRAM
// load overlaps chunk k's ring rounds.
//
// The abstract model charges the same aggregate costs without chunking;
// TestDetailedMatchesAbstract pins the two within a small factor, so the
// abstract path used in training-scale runs stays honest. The detailed
// path exists for fidelity studies and costs O(chunks) events — use it
// on tens of megabytes, not BERT.
func (g *SyncGroup) AllReduceDetailed(bytes int64, onDone func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("memdev: detailed allreduce of %d bytes", bytes))
	}
	g.enqueue(bytes, true, onDone)
}

func (g *SyncGroup) runDetailed(bytes int64, done func()) {
	eng := g.pool.Topo.Eng
	chunkBytes := int64(g.pool.Devices[0].Config.BufEntries) * 4
	chunks := int(bytes / chunkBytes)
	if int64(chunks)*chunkBytes < bytes {
		chunks++
	}
	if chunks == 0 {
		eng.Schedule(0, done)
		return
	}
	dram := g.pool.Devices[0]

	// Pipeline state: the load stage and the writeback stage are DRAM
	// ports (serial), the ring stage is the group's cores (serial).
	// Chunk k+1's load overlaps chunk k's ring rounds.
	var loadFree, wbFree sim.Time
	remaining := chunks

	pendingRing := []int64{}
	ringBusy := false
	var pumpRing func()
	pumpRing = func() {
		if ringBusy || len(pendingRing) == 0 {
			return
		}
		ringBusy = true
		size := pendingRing[0]
		pendingRing = pendingRing[1:]
		g.ring.AllReduceBytes(size, g.Reverse, func() {
			// Writeback through the serial DRAM port.
			start := eng.Now()
			if wbFree > start {
				start = wbFree
			}
			wbFree = start + dram.DRAMTime(size)
			eng.At(wbFree, func() {
				remaining--
				if remaining == 0 {
					done()
				}
			})
			ringBusy = false
			pumpRing()
		})
	}

	var load func(k int)
	load = func(k int) {
		if k == chunks {
			return
		}
		size := chunkBytes
		if int64(k+1)*chunkBytes > bytes {
			size = bytes - int64(k)*chunkBytes
		}
		start := eng.Now()
		if loadFree > start {
			start = loadFree
		}
		loadFree = start + dram.DRAMTime(size)
		eng.At(loadFree, func() {
			pendingRing = append(pendingRing, size)
			pumpRing()
			load(k + 1)
		})
	}
	load(0)
}
