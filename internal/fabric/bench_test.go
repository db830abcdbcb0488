package fabric

import (
	"testing"

	"coarse/internal/sim"
)

// The fabric microbenchmarks model the hot-path shapes the training
// simulations exercise hardest, so `go test -bench . ./internal/fabric`
// measures the costs the quick suite pays:
//
//   - incast: many same-instant flows onto one bottleneck channel (an
//     all-reduce reduce step, a parameter-server pull storm);
//   - all-to-all: every endpoint pair crossing a shared switch, the
//     collective traffic pattern with the largest reshare fan-out;
//   - capacity flap: SetLinkCapacity storms under long-lived flows,
//     the dynamic re-profiling path;
//   - disjoint burst: waves of same-instant flows that each sit alone
//     on their channels, one step of a ring collective, each wave one
//     partial pass that rates every flow as a lone entrant;
//   - rack fan-in: a tiered tree whose every worker sends to one of a
//     few sinks, the rack-scale parameter-server shape, where every
//     completion is a multi-round full pass over one component;
//   - solo stream: one ephemeral transfer at a time, each alone on its
//     path, the shape of COARSE's offline profiler probes, where every
//     pass rates a lone entrant in one round.
//
// Each iteration builds a fresh engine+network and runs to completion,
// so ns/op covers admission, every reshare, and completion handling.

// BenchmarkFabricIncast256 admits 256 equal flows at t=0 onto a single
// bottleneck channel and runs to completion. Equal sizes mean all
// admissions land at one instant and all completions land at another —
// the pattern reshare coalescing targets.
func BenchmarkFabricIncast256(b *testing.B) {
	benchIncast(b, 256, false)
}

// BenchmarkFabricIncast256Staggered staggers the 256 sizes so every
// completion lands at its own instant, forcing a full reshare per
// completion: the O(F^2) worst case.
func BenchmarkFabricIncast256Staggered(b *testing.B) {
	benchIncast(b, 256, true)
}

func BenchmarkFabricIncast1024(b *testing.B) {
	benchIncast(b, 1024, false)
}

func benchIncast(b *testing.B, n int, staggered bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		l := net.NewLink("bottleneck", 16*gib, 16*gib, 0)
		completed := 0
		for j := 0; j < n; j++ {
			size := float64(4 * mib)
			if staggered {
				size += float64(j) * 64 * 1024
			}
			net.StartFlow([]*Channel{l.Fwd()}, size, func() { completed++ })
		}
		eng.Run()
		if completed != n {
			b.Fatalf("completed %d of %d flows", completed, n)
		}
	}
}

// BenchmarkFabricAllToAll16 runs a 16-endpoint all-to-all across a
// shared switch: every ordered pair sends one flow over its source
// uplink and destination downlink, so every reshare walks long shared
// paths.
func BenchmarkFabricAllToAll16(b *testing.B) {
	const n = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		links := make([]*Link, n)
		for j := range links {
			links[j] = net.NewLink("edge", 12*gib, 12*gib, 0)
		}
		completed := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				path := []*Channel{links[s].Fwd(), links[d].Rev()}
				net.StartFlow(path, float64((1+(s+d)%7)*mib), func() { completed++ })
			}
		}
		eng.Run()
		if completed != n*(n-1) {
			b.Fatalf("completed %d of %d flows", completed, n*(n-1))
		}
	}
}

// BenchmarkFabricCapacityFlap keeps 64 long flows alive across a
// two-hop topology while the shared trunk's capacity flaps 256 times:
// every flap settles all flows and reshares the whole network.
func BenchmarkFabricCapacityFlap(b *testing.B) {
	const flows = 64
	const flaps = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		trunk := net.NewLink("trunk", 32*gib, 32*gib, 0)
		edges := make([]*Link, flows)
		for j := range edges {
			edges[j] = net.NewLink("edge", 2*gib, 2*gib, 0)
		}
		completed := 0
		for j := 0; j < flows; j++ {
			path := []*Channel{edges[j].Fwd(), trunk.Fwd()}
			net.StartFlow(path, float64(1*gib), func() { completed++ })
		}
		for k := 0; k < flaps; k++ {
			hi := 24 + k%16
			eng.Schedule(sim.Time(1+k)*1_000_000, func() {
				net.SetLinkCapacity(trunk, float64(hi)*gib, float64(hi)*gib)
			})
		}
		eng.Run()
		if completed != flows {
			b.Fatalf("completed %d of %d flows", completed, flows)
		}
	}
}

// BenchmarkFabricDisjointBurst admits 8 waves of 256 same-instant
// flows, each alone on its own two-hop path, under one long-lived flow
// that keeps the fabric warm: every wave is one partial pass rating 256
// lone entrants, the shape of a data-parallel ring step.
// Sizes are staggered so each wave drains through a completion cascade
// before the next one arrives.
func BenchmarkFabricDisjointBurst(b *testing.B) {
	const flows = 256
	const waves = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		warm := net.NewLink("warm", 16*gib, 16*gib, 0)
		paths := make([][]*Channel, flows)
		for j := range paths {
			up := net.NewLink("up", float64(8+j%4)*gib, 8*gib, 0)
			down := net.NewLink("down", float64(6+j%5)*gib, 8*gib, 0)
			paths[j] = []*Channel{up.Fwd(), down.Fwd()}
		}
		completed := 0
		net.StartFlow([]*Channel{warm.Fwd()}, 16*gib, func() { completed++ })
		for w := 0; w < waves; w++ {
			eng.Schedule(sim.Time(1+w)*1_000_000, func() {
				for j, p := range paths {
					net.StartFlow(p, float64((1+j%16)*mib/4), func() { completed++ })
				}
			})
		}
		eng.Run()
		if completed != 1+flows*waves {
			b.Fatalf("completed %d of %d flows", completed, 1+flows*waves)
		}
	}
}

// BenchmarkFabricRackFanIn runs a tiered fan-in: 16 racks of 16
// workers, each worker sending one flow to each of 4 sinks over its
// edge link, its rack's uplink and the sink's downlink, the
// parameter-server push of a sharded model. Edge, uplink and downlink
// capacities differ from link to link, so fills take several rounds
// across the tiers, and each sink downlink carries a quarter of the
// flows: the flow graph is one component on a hot channel, so no
// partial pass walks it. Sizes are staggered so every completion
// lands at its own instant and most are full passes over every live
// flow, the shape of scale-512's parameter-server cells.
func BenchmarkFabricRackFanIn(b *testing.B) {
	const racks, perRack, sinks = 16, 16, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		down := make([]*Channel, sinks)
		for s := range down {
			down[s] = net.NewLink("down", float64(24+8*s)*gib, 32*gib, 0).Fwd()
		}
		completed := 0
		for r := 0; r < racks; r++ {
			up := net.NewLink("up", float64(40+8*(r%4))*gib, 64*gib, 0).Fwd()
			for w := 0; w < perRack; w++ {
				edge := net.NewLink("edge", float64(10+w%3)*gib, 12*gib, 0).Fwd()
				for s, d := range down {
					j := (r*perRack+w)*sinks + s
					net.StartFlow([]*Channel{edge, up, d}, float64(4*mib+j*16*1024), func() { completed++ })
				}
			}
		}
		eng.Run()
		if completed != racks*perRack*sinks {
			b.Fatalf("completed %d of %d flows", completed, racks*perRack*sinks)
		}
	}
}

// BenchmarkFabricSoloStream sends 4,096 ephemeral transfers one after
// another across a 2,048-link fabric, each over a 4-hop path of its
// own and started by the previous one's completion: every instant
// retires one transfer and admits the next, alone on its channels,
// the shape of COARSE's profiler probes.
func BenchmarkFabricSoloStream(b *testing.B) {
	const links, hops, transfers = 2048, 4, 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		chans := make([]*Channel, links)
		for j := range chans {
			chans[j] = net.NewLink("l", float64(8+j%5)*gib, 8*gib, 0).Fwd()
		}
		path := make([]*Channel, hops)
		sent := 0
		var next func()
		next = func() {
			if sent == transfers {
				return
			}
			for h := range path {
				path[h] = chans[(sent*7+h*links/hops)%links]
			}
			sent++
			net.TransferEphemeral(path, int64(1+sent%8)*mib, next)
		}
		next()
		eng.Run()
		if sent != transfers {
			b.Fatalf("sent %d of %d transfers", sent, transfers)
		}
	}
}
