package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSeriesAndMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure X", "model", "speedup")
	tab.AddRow("ResNet50", 3.25)
	tab.AddRow("BERT", 13.3)
	out := tab.String()
	for _, want := range []string{"== Figure X ==", "model", "speedup", "ResNet50", "3.250", "13.3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows()) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
}

func TestFormatters(t *testing.T) {
	if got := GBps(12.5e9); got != "12.50 GB/s" {
		t.Fatalf("GBps = %q", got)
	}
	if got := Ms(1_500_000); got != "1.500 ms" {
		t.Fatalf("Ms = %q", got)
	}
	if got := Pct(0.483); got != "48.3%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Speedup(13.3); got != "13.30x" {
		t.Fatalf("Speedup = %q", got)
	}
}

func TestTableJSON(t *testing.T) {
	tab := NewTable("Fig", "a", "b")
	tab.AddRow("x", 1.5)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "Fig" || len(got.Columns) != 2 || got.Rows[0][1] != "1.500" {
		t.Fatalf("json = %s", data)
	}
	// Empty table still yields an array, not null.
	empty, _ := json.Marshal(NewTable("E", "c"))
	if strings.Contains(string(empty), "null") {
		t.Fatalf("empty table marshals null: %s", empty)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tab := NewTable("Figure R", "machine", "iter time", "speedup")
	tab.AddRow("AWS V100", "1.500 ms", 13.3)
	tab.AddRow("SDSC P100", "OOM", "-")
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The round-tripped table must render byte-identically — coarsebench
	// -json consumers can regenerate the text artifact exactly.
	if back.String() != tab.String() {
		t.Fatalf("round trip changed rendering:\n%s\n---\n%s", tab.String(), back.String())
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-marshal not byte-identical:\n%s\n---\n%s", data, again)
	}
	// Empty table round-trips too (rows [] <-> nil normalization).
	var emptyBack Table
	emptyData, _ := json.Marshal(NewTable("E", "c"))
	if err := json.Unmarshal(emptyData, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if emptyBack.String() != NewTable("E", "c").String() {
		t.Fatal("empty table round trip changed rendering")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := Result{
		ID:     "fig16/AWS V100/BERT-Base/b2/COARSE/i4",
		Labels: map[string]string{"strategy": "COARSE", "machine": "AWS V100"},
		Values: map[string]float64{"iter_time_s": 0.0125, "gpu_util": 0.93},
		Extra:  map[string]string{"m_bytes": "24MiB"},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("Result round trip not byte-identical:\n%s\n---\n%s", data, again)
	}
	if back.Values["iter_time_s"] != 0.0125 || back.Labels["strategy"] != "COARSE" {
		t.Fatalf("round trip lost values: %+v", back)
	}
	// Err-only record omits empty maps.
	failed, _ := json.Marshal(Result{ID: "x", Err: "OOM"})
	if strings.Contains(string(failed), "labels") || strings.Contains(string(failed), "values") {
		t.Fatalf("failed record carries empty maps: %s", failed)
	}
}
