package coarse

import (
	"errors"
	"strings"
	"testing"

	"coarse/internal/gpu"
)

func TestTrainAllStrategies(t *testing.T) {
	for _, s := range Strategies() {
		res, err := Train(SDSCP100(), MLP("tiny", 64, 32, 8), 4, 2, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Strategy != string(s) {
			t.Fatalf("strategy label %q, want %q", res.Strategy, s)
		}
		if res.IterTime <= 0 {
			t.Fatalf("%s: non-positive iteration time", s)
		}
	}
}

func TestTrainUnknownStrategy(t *testing.T) {
	if _, err := Train(SDSCP100(), MLP("t", 4, 2), 1, 1, Strategy("nope")); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestTrainOOM(t *testing.T) {
	_, err := Train(AWSV100(), BERTLarge(), 64, 1, StrategyAllReduce)
	if !errors.Is(err, gpu.ErrOOM) {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func TestProfileFindsAntiLocality(t *testing.T) {
	tables := Profile(AWSV100())
	if len(tables) != 4 {
		t.Fatalf("profiled %d workers, want 4", len(tables))
	}
	for i, table := range tables {
		if !table.NonUniform() {
			t.Fatalf("worker %d: expected non-uniform routing on V100", i)
		}
	}
	for _, table := range Profile(SDSCP100()) {
		if table.NonUniform() {
			t.Fatal("SDSC should be uniform")
		}
	}
}

func TestRunExperiment(t *testing.T) {
	out, err := RunExperiment("fig3", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || !strings.Contains(out[0], "GPU Direct") {
		t.Fatalf("fig3 output: %v", out)
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	title, paper, err := ExperimentInfo("fig16")
	if err != nil || title == "" || paper == "" {
		t.Fatalf("ExperimentInfo: %q %q %v", title, paper, err)
	}
	if len(ExperimentIDs()) < 10 {
		t.Fatalf("only %d experiments registered", len(ExperimentIDs()))
	}
}

func TestMaxFeasibleBatch(t *testing.T) {
	// BERT-Large on 16 GB V100: AllReduce caps at batch 2-3, COARSE goes
	// higher thanks to offloaded optimizer state (the Figure 16e gap).
	ar, err := MaxFeasibleBatch(AWSV100(), BERTLarge(), StrategyAllReduce, 16)
	if err != nil {
		t.Fatal(err)
	}
	co, err := MaxFeasibleBatch(AWSV100(), BERTLarge(), StrategyCOARSE, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ar >= 4 {
		t.Fatalf("AllReduce max batch %d, want < 4 (the paper's OOM)", ar)
	}
	if co <= ar {
		t.Fatalf("COARSE max batch %d should exceed AllReduce's %d", co, ar)
	}
	// Monotonic sanity: the reported batch fits, the next does not.
	if _, err := Train(AWSV100(), BERTLarge(), co, 1, StrategyCOARSE); err != nil {
		t.Fatalf("reported feasible batch %d fails: %v", co, err)
	}
	if _, err := Train(AWSV100(), BERTLarge(), co+1, 1, StrategyCOARSE); err == nil {
		t.Fatalf("batch %d should not fit", co+1)
	}
}

func TestMaxFeasibleBatchErrors(t *testing.T) {
	if _, err := MaxFeasibleBatch(AWSV100(), BERTLarge(), StrategyAllReduce, 0); err == nil {
		t.Fatal("limit 0 accepted")
	}
	huge := MLP("huge", 100_000, 100_000)
	if _, err := MaxFeasibleBatch(AWSV100(), huge, StrategyAllReduce, 4); err == nil {
		t.Fatal("unfittable model accepted")
	}
	// An unknown strategy is a naming error, not a model that does not
	// fit.
	_, err := MaxFeasibleBatch(AWSV100(), BERTBase(), Strategy("nope"), 4)
	if err == nil || strings.Contains(err.Error(), "does not fit") || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown strategy: err = %v, want an unknown-strategy error", err)
	}
}
