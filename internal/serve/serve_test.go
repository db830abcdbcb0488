package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"coarse/internal/chaos"
	"coarse/internal/model"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

func testConfig(placement KVPlacement) Config {
	cfg := DefaultConfig(topology.AWSV100(), model.BERTBase(), Workload{
		Arrival:    Poisson,
		RatePerSec: 40,
		Requests:   48,
	})
	cfg.KVPlacement = placement
	cfg.PrefillWorkers = 2
	return cfg
}

// TestServeCompletes: every request finishes, latencies are positive,
// and the bookkeeping adds up — for both placements.
func TestServeCompletes(t *testing.T) {
	for _, placement := range []KVPlacement{KVLocal, KVPooled} {
		placement := placement
		t.Run(placement.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(testConfig(placement))
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Requests || res.Requests != 48 {
				t.Fatalf("completed %d of %d requests", res.Completed, res.Requests)
			}
			if res.TTFT.P50 <= 0 || res.TPOT.P50 <= 0 {
				t.Fatalf("non-positive latency: TTFT p50 %d TPOT p50 %d", res.TTFT.P50, res.TPOT.P50)
			}
			if res.TTFT.P50 > res.TTFT.P99 || res.TTFT.P99 > res.TTFT.P999 {
				t.Fatalf("TTFT percentiles out of order: %+v", res.TTFT)
			}
			if res.AchievedRPS <= 0 || res.GoodputRPS > res.AchievedRPS {
				t.Fatalf("rps bookkeeping wrong: achieved %.2f goodput %.2f", res.AchievedRPS, res.GoodputRPS)
			}
			if res.MeanBatch < 1 {
				t.Fatalf("mean decode batch %.2f < 1", res.MeanBatch)
			}
			if res.KVFabricBytes <= 0 {
				t.Fatalf("no KV bytes crossed the fabric")
			}
			if res.ParamFabricBytes <= 0 {
				t.Fatalf("no shared-parameter bytes crossed the fabric")
			}
		})
	}
}

// TestServeDeterministic: the same config replays to byte-identical
// results (JSON compared), and a different seed changes the outcome.
func TestServeDeterministic(t *testing.T) {
	run := func(seed int64) string {
		cfg := testConfig(KVPooled)
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := run(5), run(5)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if run(6) == a {
		t.Fatalf("seed 5 and 6 produced identical results")
	}
}

// TestServePooledVsLocal: the placements genuinely trade off — pooled
// moves per-step KV traffic over the fabric (more KV bytes), local
// caps decode concurrency at the HBM budget. Their latency profiles
// must differ measurably.
func TestServePooledVsLocal(t *testing.T) {
	local, err := Run(testConfig(KVLocal))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(testConfig(KVPooled))
	if err != nil {
		t.Fatal(err)
	}
	if pooled.KVFabricBytes <= local.KVFabricBytes {
		t.Fatalf("pooled KV fabric bytes %d not above local %d",
			pooled.KVFabricBytes, local.KVFabricBytes)
	}
	if pooled.TPOT.P99 == local.TPOT.P99 && pooled.TTFT.P99 == local.TTFT.P99 {
		t.Fatalf("placements produced identical tails: TTFT p99 %d TPOT p99 %d",
			pooled.TTFT.P99, pooled.TPOT.P99)
	}
}

// TestServeZeroTrafficIdle: a zero-traffic serve cell is byte-identical
// to an idle machine — zero events, zero virtual time — even with a
// chaos spec attached (fault daemons never fire without foreground
// work, mirroring the nil-injector convention).
func TestServeZeroTrafficIdle(t *testing.T) {
	cfg := testConfig(KVPooled)
	cfg.Workload.Requests = 0
	cfg.Chaos = &chaos.Spec{Faults: []chaos.Fault{{
		Kind:     chaos.CCIBrownout,
		Start:    sim.Seconds(0.1),
		Duration: sim.Seconds(1),
		Factor:   0.3,
	}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 || res.TotalTime != 0 {
		t.Fatalf("zero-traffic run dispatched %d events over %d ns; want an idle machine",
			res.Events, res.TotalTime)
	}
	if res.ChaosFaults != 0 || res.ChaosStall != 0 {
		t.Fatalf("chaos fired on an idle machine: %d faults, %d ns stall",
			res.ChaosFaults, res.ChaosStall)
	}
	if res.KVFabricBytes != 0 || res.ParamFabricBytes != 0 {
		t.Fatalf("idle machine moved bytes: kv %d param %d", res.KVFabricBytes, res.ParamFabricBytes)
	}
}

// TestServeBrownoutInflatesTails: a CCI brownout throttling the pool's
// ports during the run inflates pooled-KV tail latency.
func TestServeBrownoutInflatesTails(t *testing.T) {
	base, err := Run(testConfig(KVPooled))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(KVPooled)
	cfg.Chaos = &chaos.Spec{Faults: []chaos.Fault{
		{Kind: chaos.CCIBrownout, Start: 0, Duration: base.TotalTime, Factor: 0.25, Target: 0},
		{Kind: chaos.CCIBrownout, Start: 0, Duration: base.TotalTime, Factor: 0.25, Target: 1},
		{Kind: chaos.CCIBrownout, Start: 0, Duration: base.TotalTime, Factor: 0.25, Target: 2},
		{Kind: chaos.CCIBrownout, Start: 0, Duration: base.TotalTime, Factor: 0.25, Target: 3},
	}}
	browned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if browned.ChaosFaults == 0 {
		t.Fatalf("brownout plan compiled to nothing")
	}
	if browned.TPOT.P99 <= base.TPOT.P99 {
		t.Fatalf("brownout did not inflate TPOT p99: %d <= %d", browned.TPOT.P99, base.TPOT.P99)
	}
}

// TestServeConfigValidation: impossible configurations fail loudly at
// construction, not mid-run.
func TestServeConfigValidation(t *testing.T) {
	// KVLocal admission would block forever on a sequence whose full
	// context exceeds the budget.
	if maxSeqKV := int64(promptMax+outputMax) * kvBytesPerToken; maxSeqKV > localKVBudget {
		t.Fatalf("one maximal sequence (%d bytes) exceeds the local KV budget %d", maxSeqKV, localKVBudget)
	}

	cfg := testConfig(KVPooled)
	cfg.PrefillWorkers = 4 // all four GPUs prefill, no decode pool
	if _, err := New(cfg); err == nil {
		t.Fatalf("empty decode pool accepted")
	}

	cfg = testConfig(KVPooled)
	cfg.Model = nil
	if _, err := New(cfg); err == nil {
		t.Fatalf("nil model accepted")
	}

	// Workloads that would allocate an outsized trace or turn into
	// ill-formed arrival times; the zero-traffic run stays valid.
	for name, w := range map[string]Workload{
		"NaN rate":       {RatePerSec: math.NaN(), Requests: 8},
		"+Inf rate":      {RatePerSec: math.Inf(1), Requests: 8},
		"-Inf rate":      {RatePerSec: math.Inf(-1), Requests: 8},
		"negative rate":  {RatePerSec: -1, Requests: 8},
		"huge rate":      {RatePerSec: 1e300, Requests: 8},
		"too many":       {RatePerSec: 40, Requests: maxRequests + 1},
		"negative count": {RatePerSec: 40, Requests: -1},
		"unknown shape":  {Arrival: Bursty + 1, RatePerSec: 40, Requests: 8},
		"span too long":  {RatePerSec: 1e-9, Requests: 1},
	} {
		cfg = testConfig(KVPooled)
		cfg.Workload = w
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: workload %+v accepted", name, w)
		}
	}
	cfg = testConfig(KVPooled)
	cfg.Workload = Workload{}
	if _, err := New(cfg); err != nil {
		t.Fatalf("zero-traffic workload rejected: %v", err)
	}
}

// TestParseKVPlacement round-trips both names.
func TestParseKVPlacement(t *testing.T) {
	for _, p := range []KVPlacement{KVLocal, KVPooled} {
		got, err := ParseKVPlacement(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseKVPlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseKVPlacement("remote"); err == nil {
		t.Fatalf("ParseKVPlacement accepted an unknown placement")
	}
}

// TestServeArrivalTieOrder pins how requests arriving at the same
// nanosecond are ordered: by trace position, the rank each arrival
// reserved when Run started. At 1e9 requests/s the 64-request seed-7
// trace holds 18 same-instant arrival pairs under Poisson and 34 under
// Bursty; handing either of a pair to the prefill pool first changes
// which request waits, so the pinned figures (computed when every
// arrival was scheduled up front) move with any change of tie order.
// The engine's rank count after Run is pinned too: each arrival takes
// the rank reserved for it, so re-arming one at a fresh rank shows.
func TestServeArrivalTieOrder(t *testing.T) {
	cases := []struct {
		shape     ArrivalKind
		placement KVPlacement
		total     sim.Time
		events    uint64
		ranks     uint64
		completed int
		kvBytes   int64
		ttft      LatencyStats
		tpot      LatencyStats
	}{
		{Poisson, KVLocal, 2274828012, 4936, 11344, 64, 5721030656,
			LatencyStats{175715671, 167148290, 381514010, 381514010},
			LatencyStats{71576047, 19410844, 1353355791, 1353355791}},
		{Poisson, KVPooled, 1837190781, 17886, 29406, 64, 44630748976,
			LatencyStats{175647119, 167148290, 380681943, 380681943},
			LatencyStats{27197911, 12633007, 260884658, 260884658}},
		{Bursty, KVLocal, 2274828011, 4936, 11344, 64, 5721030656,
			LatencyStats{175715694, 167148312, 381514054, 381514054},
			LatencyStats{71576047, 19410844, 1353355791, 1353355791}},
		{Bursty, KVPooled, 1837190780, 17886, 29406, 64, 44630748976,
			LatencyStats{175647141, 167148312, 380681987, 380681987},
			LatencyStats{27197911, 12633007, 260884658, 260884658}},
	}
	for _, c := range cases {
		t.Run(c.shape.String()+"-"+c.placement.String(), func(t *testing.T) {
			w := Workload{Arrival: c.shape, RatePerSec: 1e9, Requests: 64}
			cfg := DefaultConfig(topology.AWSV100(), model.BERTBase(), w)
			cfg.KVPlacement = c.placement
			cfg.Seed = 7
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			ranks := s.eng.SeqMark()
			if res.TotalTime != c.total || res.Events != c.events || ranks != c.ranks || res.Completed != c.completed ||
				res.KVFabricBytes != c.kvBytes || res.TTFT != c.ttft || res.TPOT != c.tpot {
				t.Errorf("got TotalTime %d Events %d ranks %d Completed %d KVFabricBytes %d TTFT %+v TPOT %+v\n"+
					"want TotalTime %d Events %d ranks %d Completed %d KVFabricBytes %d TTFT %+v TPOT %+v",
					res.TotalTime, res.Events, ranks, res.Completed, res.KVFabricBytes, res.TTFT, res.TPOT,
					c.total, c.events, c.ranks, c.completed, c.kvBytes, c.ttft, c.tpot)
			}
		})
	}
}

// TestServeRunTwice: a Sim runs once. A second Run returns an error
// naming the remedy instead of rescheduling the trace in the past.
func TestServeRunTwice(t *testing.T) {
	s, err := New(testConfig(KVPooled))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "new Sim") {
		t.Fatalf("second Run = %v, %v; want an error saying to build a new Sim", res, err)
	}
	if res != nil {
		t.Fatalf("second Run returned a result: %+v", res)
	}
	if again, err := Run(testConfig(KVPooled)); err != nil || *again != *first {
		t.Fatalf("a fresh Sim after the rejected Run = %+v, %v; want %+v", again, err, first)
	}
}

// TestFifoMatchesSlice drives the request queue through bursts and
// drains against a plain slice: it pops in push order, and its storage
// stays within four times the deepest backlog however many indices
// pass (it grows only when more than half full, by at most double).
func TestFifoMatchesSlice(t *testing.T) {
	var f fifo
	var ref []int
	r := rand.New(rand.NewSource(3))
	next, peak := 0, 0
	for step := 0; step < 20000; step++ {
		if r.Intn(2) == 0 {
			for k := r.Intn(40); k > 0; k-- {
				f.push(next)
				ref = append(ref, next)
				next++
			}
		} else {
			for k := r.Intn(40); k > 0 && len(ref) > 0; k-- {
				if got := f.peek(); got != ref[0] {
					t.Fatalf("step %d: peek %d, want %d", step, got, ref[0])
				}
				if got := f.pop(); got != ref[0] {
					t.Fatalf("step %d: pop %d, want %d", step, got, ref[0])
				}
				ref = ref[1:]
			}
		}
		if f.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, f.len(), len(ref))
		}
		peak = max(peak, len(ref))
	}
	if cap(f.q) > 4*peak {
		t.Fatalf("storage holds %d indices for a deepest backlog of %d", cap(f.q), peak)
	}
}
