package runner

import (
	"fmt"
	"sync"
	"testing"
)

// recordingObserver collects cell lifecycle events under a lock, as
// the Observer contract requires of real implementations.
type recordingObserver struct {
	mu       sync.Mutex
	started  map[string]int
	finished map[string]*Result
	specs    []Spec // as handed to CellStarted
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{started: map[string]int{}, finished: map[string]*Result{}}
}

func (o *recordingObserver) CellStarted(s Spec) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started[s.ID]++
	o.specs = append(o.specs, s)
}

func (o *recordingObserver) CellFinished(s Spec, res *Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished[s.ID] = res
}

func TestObserverSeesEveryCell(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		obs := newRecordingObserver()
		pool := &Pool{Parallel: parallel, Observer: obs}
		var specs []Spec
		for i := 0; i < 5; i++ {
			specs = append(specs, testSpec(fmt.Sprintf("obs-%d-par%d", i, parallel)))
		}
		// One failing cell: the observer must still get its result.
		specs[3].NewStrategy = nil
		// A serving cell reaches the observer as the spec it is.
		specs = append(specs, testServeSpec(fmt.Sprintf("obs-serve-par%d", parallel)))
		out := pool.Run(specs)
		for i, s := range specs {
			if obs.started[s.ID] != 1 {
				t.Fatalf("parallel=%d: cell %s started %d times", parallel, s.ID, obs.started[s.ID])
			}
			res := obs.finished[s.ID]
			if res == nil {
				t.Fatalf("parallel=%d: cell %s never finished", parallel, s.ID)
			}
			if res != out[i] {
				t.Fatalf("parallel=%d: observer got a different Result than the caller for %s", parallel, s.ID)
			}
		}
		if obs.finished[specs[3].ID].OK() {
			t.Fatal("strategy-less cell unexpectedly succeeded")
		}
		served := 0
		for _, s := range obs.specs {
			if s.Workload != nil {
				served++
				if s.Workload != specs[5].Workload || s.Topology.Label != specs[5].Topology.Label {
					t.Fatalf("parallel=%d: observer got a different serving spec: %+v", parallel, s)
				}
			}
		}
		if served != 1 || out[5].Serve == nil {
			t.Fatalf("parallel=%d: serving cell seen %d times, result %+v", parallel, served, out[5])
		}
	}
}

// TestObserverSeesCacheHits pins that memoized cells still notify the
// observer: a dashboard must show every cell of a batch, including the
// ones another experiment already paid for.
func TestObserverSeesCacheHits(t *testing.T) {
	for _, s := range []Spec{testSpec("obs-cached"), testServeSpec("obs-serve-cached")} {
		ClearCache()
		s.Key = s.ID + "-key"
		first := (&Pool{Parallel: 1}).Run([]Spec{s})[0]

		obs := newRecordingObserver()
		out := (&Pool{Parallel: 1, Observer: obs}).Run([]Spec{s})
		if obs.started[s.ID] != 1 || obs.finished[s.ID] == nil {
			t.Fatalf("%s: cache-hit cell not observed", s.ID)
		}
		if out[0] != first || obs.finished[s.ID] != first {
			t.Fatalf("%s: cache hit returned a different Result pointer", s.ID)
		}
	}
	ClearCache()
}
