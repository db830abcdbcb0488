package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadDump feeds arbitrary bytes to ReadDump, the parser behind
// coarsestat and its -diff mode. Bad input must come back as an error;
// a dump it accepts must survive every read-side view without a panic.
func FuzzReadDump(f *testing.F) {
	var small, links bytes.Buffer
	if err := buildSmallDump([]string{"alpha", "beta", "hist"}).WriteJSON(&small); err != nil {
		f.Fatal(err)
	}
	d := mkDump(40, merge(linkSeries("n0/gpu0<->n0/port4", 0.5, 0.9, 1e6), workerSeries(0, 30, 10, 2)))
	d.Counters = []CounterDump{{Name: "fabric/bytes", Unit: "B", Value: 1e6}}
	if err := d.WriteJSON(&links); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		small.Bytes(),
		links.Bytes(),
		links.Bytes()[:links.Len()/2],
		[]byte(`{"total_time_ns":10,"period_ns":5,"times_ns":[0,10],"series":[{"name":"x","values":[1]}]}`),
		[]byte(`{"series":[],"times_ns":[]}`),
		[]byte(`not json`),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if (d == nil) == (err == nil) {
			t.Fatalf("ReadDump returned dump %v and error %v", d, err)
		}
		if err != nil {
			return
		}
		links, workers := d.LinkStats(), d.WorkerStats()
		if len(d.Counters) > 0 {
			if c := d.Counters[0]; d.CounterValue(c.Name) != c.Value {
				t.Fatalf("CounterValue(%q) = %g, want %g", c.Name, d.CounterValue(c.Name), c.Value)
			}
		}
		diff := DiffDumps(d, d)
		if len(diff.Links) != len(links) || len(diff.Workers) != len(workers) {
			t.Fatalf("self-diff has %d links and %d workers, dump has %d and %d",
				len(diff.Links), len(diff.Workers), len(links), len(workers))
		}
	})
}
