package profiler

import (
	"testing"

	"coarse/internal/cci"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

// BenchmarkProfilerBuildTable builds every worker's routing table
// against every memory device of the generated 8-rack machine
// (rackSpec): 128 tables of 16 proxies, about 6,000 probes, the shape
// of COARSE's offline profiling on a rack-scale cell. Building the
// machine is not timed; the routes' shortest-path trees, built on the
// first probe out of each worker, are.
func BenchmarkProfilerBuildTable(b *testing.B) {
	spec := rackSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := topology.Build(sim.NewEngine(), spec)
		p := New(cci.NewFabric(m.Topology, cci.DefaultParams()))
		b.StartTimer()
		for _, w := range m.Workers {
			p.BuildTable(w, m.Devs)
		}
	}
}
