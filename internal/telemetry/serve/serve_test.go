package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"coarse/internal/model"
	"coarse/internal/runner"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/train"
)

func testSpec(id string, withTelemetry bool) runner.Spec {
	return runner.Spec{
		ID:          id,
		Topology:    topology.SDSCP100(),
		Model:       model.MLP("serve-mlp", 256, 128, 64),
		Batch:       4,
		Iterations:  2,
		Telemetry:   withTelemetry,
		NewStrategy: func() train.Strategy { return train.NewAllReduce() },
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServeEndpoints(t *testing.T) {
	s := New()

	// Run a tiny grid through the pool with the server observing: one
	// telemetry cell, one plain, one failing.
	specs := []runner.Spec{
		testSpec("grid/alpha", true),
		testSpec("grid/beta", false),
	}
	broken := testSpec("grid/broken", false)
	broken.NewStrategy = nil
	specs = append(specs, broken)

	s.ExperimentStarted("grid", "serve unit grid")
	results := (&runner.Pool{Parallel: 2, Observer: s}).Run(specs)
	s.ExperimentFinished("grid", []string{"table-bytes-here"}, "")

	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	// /cells: all three cells, correct states.
	code, body := get(t, base+"/cells")
	if code != http.StatusOK {
		t.Fatalf("/cells status %d", code)
	}
	var cells cellsPayload
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatalf("/cells not JSON: %v\n%s", err, body)
	}
	if cells.Total != 3 || cells.Done != 2 || cells.Failed != 1 || cells.Running != 0 {
		t.Fatalf("/cells counts: %+v", cells)
	}
	byID := map[string]Cell{}
	for _, c := range cells.Cells {
		byID[c.ID] = c
	}
	if !byID["grid/alpha"].Telemetry || byID["grid/beta"].Telemetry {
		t.Fatalf("telemetry availability wrong: %+v", byID)
	}
	if byID["grid/alpha"].Strategy != "AllReduce" || byID["grid/alpha"].TotalTimeS <= 0 {
		t.Fatalf("headline metrics missing: %+v", byID["grid/alpha"])
	}
	if byID["grid/broken"].State != "failed" || byID["grid/broken"].Error == "" {
		t.Fatalf("failed cell not reported: %+v", byID["grid/broken"])
	}

	// /telemetry/ lists exactly the snapshot-bearing cell.
	code, body = get(t, base+"/telemetry/")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/ status %d", code)
	}
	var list struct {
		Cells []string `json:"cells"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Cells) != 1 || list.Cells[0] != "grid/alpha" {
		t.Fatalf("/telemetry/ list: %v", list.Cells)
	}

	// /telemetry/<id> serves the cell's dump byte-for-byte — the
	// served snapshot IS the deterministic dump, not a re-encoding.
	code, body = get(t, base+"/telemetry/grid/alpha")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/grid/alpha status %d", code)
	}
	var want bytes.Buffer
	if err := results[0].Telemetry.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served dump differs from Result.Telemetry (%d vs %d bytes)", len(body), want.Len())
	}
	if _, err := telemetry.ReadDump(bytes.NewReader(body)); err != nil {
		t.Fatalf("served dump does not round-trip: %v", err)
	}

	// Unknown cell: 404, not an empty 200.
	if code, _ = get(t, base+"/telemetry/grid/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown cell status %d, want 404", code)
	}

	// /bench: the experiment with its rendered table.
	code, body = get(t, base+"/bench")
	if code != http.StatusOK {
		t.Fatalf("/bench status %d", code)
	}
	var bench benchPayload
	if err := json.Unmarshal(body, &bench); err != nil {
		t.Fatalf("/bench not JSON: %v", err)
	}
	if bench.Total != 1 || bench.Done != 1 || bench.Experiments[0].ID != "grid" ||
		bench.Experiments[0].Tables[0] != "table-bytes-here" {
		t.Fatalf("/bench payload: %+v", bench)
	}

	// / is the HTML index; other paths 404.
	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(string(body), "coarsebench live") {
		t.Fatalf("index: status %d body %q...", code, string(body[:min(len(body), 60)]))
	}
	if code, _ = get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

func TestExperimentFailureReported(t *testing.T) {
	s := New()
	s.ExperimentStarted("boom", "exploding experiment")
	s.ExperimentFinished("boom", nil, "experiment boom panicked: kaput")

	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	_, body := get(t, "http://"+s.Addr()+"/bench")
	var bench benchPayload
	if err := json.Unmarshal(body, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Failed != 1 || bench.Experiments[0].State != "failed" ||
		!strings.Contains(bench.Experiments[0].Error, "kaput") {
		t.Fatalf("failed experiment payload: %+v", bench)
	}
}

func TestShutdownBeforeStartIsNoop(t *testing.T) {
	if err := New().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentObservationAndServing drives the observer from many
// goroutines while hammering the endpoints — the lock discipline under
// -race.
func TestConcurrentObservationAndServing(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if code, _ := get(t, base+"/cells"); code != http.StatusOK {
				return
			}
		}
	}()
	var specs []runner.Spec
	for i := 0; i < 12; i++ {
		specs = append(specs, testSpec(fmt.Sprintf("conc/%d", i), i%3 == 0))
	}
	(&runner.Pool{Parallel: 4, Observer: s}).Run(specs)
	<-done

	_, body := get(t, base+"/cells")
	var cells cellsPayload
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatal(err)
	}
	if cells.Total != 12 || cells.Done != 12 {
		t.Fatalf("final cell counts: %+v", cells)
	}
}
