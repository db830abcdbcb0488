package serve

import (
	"fmt"
	"math/rand"
	"strings"

	"coarse/internal/sim"
)

// ArrivalKind selects the open-loop arrival process shape. All three
// are thinned Poisson processes: requests are generated at the shape's
// peak rate and accepted with probability rate(t)/peak, so one seeded
// RNG stream fully determines the trace.
type ArrivalKind int

const (
	// Poisson is a homogeneous Poisson process at RatePerSec.
	Poisson ArrivalKind = iota
	// Diurnal modulates the rate with a triangle wave (period
	// diurnalPeriod, relative depth diurnalDepth) around RatePerSec —
	// the compressed day/night load curve. A triangle rather than a
	// sinusoid keeps the modulation in +,-,*,/ only, so the trace is
	// bit-reproducible without trusting a libm.
	Diurnal
	// Bursty is a two-state modulated Poisson process: the first
	// burstFraction of every burstPeriod runs at burstFactor times the
	// off-burst rate, with the off-burst rate chosen so the long-run
	// mean stays RatePerSec.
	Bursty
)

// String returns the lower-case shape name.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("arrival(%d)", int(k))
}

// ParseArrival maps a shape name to its ArrivalKind.
func ParseArrival(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "diurnal":
		return Diurnal, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("serve: unknown arrival process %q (poisson, diurnal, bursty)", s)
}

// Workload describes one open-loop request stream: the arrival process
// and the per-request prompt/output length distributions. Lengths are
// bounded shifted-geometric (exponential rounded down), the standard
// heavy-ish tail for token counts.
type Workload struct {
	Arrival    ArrivalKind
	RatePerSec float64
	// Requests is the total request count; zero means no traffic at
	// all (a zero-traffic run is byte-identical to an idle machine).
	Requests int

	// Mean prompt and output token lengths; zero values take the
	// defaults (24 and 48).
	PromptMean, OutputMean int
}

// The arrival shapes and length bounds every workload shares. The
// diurnal curve is one compressed "day" per few seconds of virtual
// time; a burst runs in the first burstFraction of every burstPeriod
// at burstFactor times the off-burst rate.
const (
	diurnalPeriod sim.Time = 4_000_000_000
	diurnalDepth  float64  = 0.8

	burstPeriod   sim.Time = 1_000_000_000
	burstFraction float64  = 0.25
	burstFactor   float64  = 4

	promptMax = 64
	outputMax = 96
)

// Input bounds New enforces before any trace is generated.
const (
	// maxRequests caps a workload's request count: GenerateTrace
	// allocates the whole trace up front, 32 bytes a request. The
	// experiments and the benchmark use at most 1,000.
	maxRequests = 1_000_000
	// maxRatePerSec keeps every shape's peak rate finite and the
	// thinning generator's candidate count within a small multiple of
	// the request count.
	maxRatePerSec = 1e9
	// maxSpanSeconds caps the trace's mean span (Requests/RatePerSec)
	// far inside the int64-nanosecond range arrival times live in.
	maxSpanSeconds = 1e6
)

// validate rejects workloads the generator cannot turn into a bounded,
// well-formed trace: an unknown arrival shape, a NaN, infinite, negative
// or huge rate, a negative or huge request count, or a rate so low the
// arrivals would leave virtual time's range. Requests == 0 at rate 0 is
// the valid zero-traffic run.
func (w Workload) validate() error {
	switch {
	case w.Arrival < Poisson || w.Arrival > Bursty:
		return fmt.Errorf("serve: unknown arrival process %v", w.Arrival)
	case !(w.RatePerSec >= 0 && w.RatePerSec <= maxRatePerSec):
		return fmt.Errorf("serve: arrival rate %v: want a finite rate in [0, %g]", w.RatePerSec, maxRatePerSec)
	case w.Requests < 0 || w.Requests > maxRequests:
		return fmt.Errorf("serve: %d requests: want 0 to %d", w.Requests, maxRequests)
	case w.Requests > 0 && w.RatePerSec > 0 && float64(w.Requests)/w.RatePerSec > maxSpanSeconds:
		return fmt.Errorf("serve: %d requests at %v/s span more than %g virtual seconds",
			w.Requests, w.RatePerSec, maxSpanSeconds)
	}
	return nil
}

// withDefaults fills the zero-valued length means.
func (w Workload) withDefaults() Workload {
	if w.PromptMean <= 0 {
		w.PromptMean = 24
	}
	if w.OutputMean <= 0 {
		w.OutputMean = 48
	}
	return w
}

// peakRate returns the shape's maximum instantaneous rate — the
// homogeneous rate the thinning generator runs at.
func (w Workload) peakRate() float64 {
	switch w.Arrival {
	case Diurnal:
		return w.RatePerSec * (1 + diurnalDepth)
	case Bursty:
		return w.offBurstRate() * burstFactor
	}
	return w.RatePerSec
}

// offBurstRate is the bursty shape's base rate, chosen so the long-run
// mean over burst and quiet phases equals RatePerSec.
func (w Workload) offBurstRate() float64 {
	f := burstFraction
	return w.RatePerSec / (1 - f + burstFactor*f)
}

// rateAt returns the instantaneous arrival rate at virtual second t.
func (w Workload) rateAt(t float64) float64 {
	switch w.Arrival {
	case Diurnal:
		period := diurnalPeriod.ToSeconds()
		p := t / period
		p -= float64(int64(p)) // fractional phase in [0, 1)
		tri := 2 * p           // triangle wave in [0, 1]
		if p >= 0.5 {
			tri = 2 * (1 - p)
		}
		return w.RatePerSec * (1 + diurnalDepth*(2*tri-1))
	case Bursty:
		period := burstPeriod.ToSeconds()
		p := t / period
		p -= float64(int64(p))
		base := w.offBurstRate()
		if p < burstFraction {
			return base * burstFactor
		}
		return base
	}
	return w.RatePerSec
}

// Request is one serving request of the open-loop trace.
type Request struct {
	ID      int      `json:"id"`
	Arrival sim.Time `json:"arrival_ns"`
	// PromptTokens is the prefill length; OutputTokens the number of
	// decode-generated tokens (>= 1; the first response token is the
	// prefill's, decode produces the rest).
	PromptTokens int `json:"prompt_tokens"`
	OutputTokens int `json:"output_tokens"`
}

// GenerateTrace expands a workload into its deterministic request
// trace. The trace is a pure function of (workload, seed): generation
// never consults the clock, execution order, or the machine, so the
// same spec yields byte-identical traces at any pool parallelism.
func GenerateTrace(w Workload, seed int64) []Request {
	w = w.withDefaults()
	if w.Requests <= 0 || w.RatePerSec <= 0 {
		return nil
	}
	// Offset the stream from the training-side seed uses ("serv").
	r := rand.New(rand.NewSource(seed ^ 0x73_65_72_76))
	peak := w.peakRate()
	out := make([]Request, 0, w.Requests)
	t := 0.0
	for len(out) < w.Requests {
		t += r.ExpFloat64() / peak
		// Thinning: accept with probability rate(t)/peak. The draw
		// happens on every candidate, accepted or not, so the stream
		// position depends only on the candidate count.
		if r.Float64()*peak > w.rateAt(t) {
			continue
		}
		out = append(out, Request{
			ID:           len(out),
			Arrival:      sim.Seconds(t),
			PromptTokens: lengthSample(r, w.PromptMean, promptMax),
			OutputTokens: lengthSample(r, w.OutputMean, outputMax),
		})
	}
	return out
}

// lengthSample draws a bounded shifted-geometric token count in
// [1, max] with the given mean (before clamping).
func lengthSample(r *rand.Rand, mean, max int) int {
	n := 1 + int(r.ExpFloat64()*float64(mean-1))
	if n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

// TraceString renders a trace in a byte-stable one-line-per-request
// form; the determinism tests compare these across parallelism and
// engine configurations.
func TraceString(reqs []Request) string {
	var b strings.Builder
	for _, q := range reqs {
		fmt.Fprintf(&b, "%d %d %d %d\n", q.ID, int64(q.Arrival), q.PromptTokens, q.OutputTokens)
	}
	return b.String()
}
