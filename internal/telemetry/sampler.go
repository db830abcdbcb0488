package telemetry

import (
	"fmt"

	"coarse/internal/sim"
)

// DefaultSamplePeriod is the sampler tick interval when a run does not
// choose one: 100 virtual microseconds, fine enough to resolve
// millisecond-scale iteration structure.
const DefaultSamplePeriod sim.Time = 100_000

// DefaultMaxSamples bounds the per-run sample count. When a run is
// long enough to exceed it, the sampler decimates in place (drops
// every other sample, doubles its period), so memory stays O(cap)
// while the series still spans the whole run.
const DefaultMaxSamples = 4096

// Sampler periodically snapshots a registry's counters and gauges into
// aligned time series. It schedules itself with daemon events, so it
// never extends the simulation, never fires past the last foreground
// event, and never changes the engine's dispatched-event fingerprint.
type Sampler struct {
	eng    *sim.Engine
	reg    *Registry
	period sim.Time
	max    int

	// frozen metric sets (bound at Start; registration must be done by
	// then, which holds because strategies register during Setup and
	// the trainer starts the sampler just before eng.Run).
	counters []*Counter
	gauges   []*Gauge

	times    []sim.Time
	series   [][]float64 // counters first, then gauges, aligned with times
	tick     *sim.Event  // the queued tick, owned so Finish can cancel it
	onTickFn func()      // s.onTick, bound once
	start    bool
}

// NewSampler binds a sampler to an engine and registry. period <= 0
// selects DefaultSamplePeriod; maxSamples <= 0 selects
// DefaultMaxSamples.
func NewSampler(eng *sim.Engine, reg *Registry, period sim.Time, maxSamples int) *Sampler {
	if eng == nil || reg == nil {
		panic("telemetry: sampler needs an engine and a registry")
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	if maxSamples < 2 {
		maxSamples = 2
	}
	return &Sampler{eng: eng, reg: reg, period: period, max: maxSamples}
}

// Period returns the current sample period (it doubles on decimation).
func (s *Sampler) Period() sim.Time { return s.period }

// Len returns the number of samples taken so far.
func (s *Sampler) Len() int { return len(s.times) }

// Start freezes the metric set, takes a sample at the current virtual
// time, and schedules the periodic ticks. Metrics registered after
// Start are still aggregated into the dump's final values but get no
// time series.
func (s *Sampler) Start() {
	if s.start {
		panic("telemetry: sampler started twice")
	}
	s.start = true
	s.counters = append([]*Counter(nil), s.reg.counters...)
	s.gauges = append([]*Gauge(nil), s.reg.gauges...)
	s.series = make([][]float64, len(s.counters)+len(s.gauges))
	s.sample()
	s.onTickFn = s.onTick
	s.tick = s.eng.AtDaemonHandle(s.eng.Now()+s.period, s.onTickFn)
}

// onTick samples and re-arms the tick, reusing the event that just fired.
func (s *Sampler) onTick() {
	s.sample()
	s.eng.Recycle(s.tick)
	s.tick = s.eng.AtDaemonHandle(s.eng.Now()+s.period, s.onTickFn)
}

// sample appends one snapshot, decimating first when at capacity.
func (s *Sampler) sample() {
	if len(s.times) >= s.max {
		s.decimate()
	}
	s.times = append(s.times, s.eng.Now())
	i := 0
	for _, c := range s.counters {
		s.series[i] = append(s.series[i], c.Value())
		i++
	}
	for _, g := range s.gauges {
		s.series[i] = append(s.series[i], g.Value())
		i++
	}
}

// decimate halves the resolution: keep every other sample (the even
// indices, so the t=0 sample survives) and double the period.
func (s *Sampler) decimate() {
	keep := (len(s.times) + 1) / 2
	for j := 0; j < keep; j++ {
		s.times[j] = s.times[2*j]
	}
	s.times = s.times[:keep]
	for si := range s.series {
		v := s.series[si]
		for j := 0; j < keep; j++ {
			v[j] = v[2*j]
		}
		s.series[si] = v[:keep]
	}
	s.period *= 2
}

// Finish cancels the periodic tick and takes one final sample at the
// current virtual time (the run's end), so integrals over the series
// cover [0, TotalTime] exactly. Call it after eng.Run returns.
func (s *Sampler) Finish() {
	if !s.start {
		panic("telemetry: Finish before Start")
	}
	if s.tick != nil {
		s.eng.Cancel(s.tick)
		s.tick = nil
	}
	if n := len(s.times); n > 0 && s.times[n-1] == s.eng.Now() {
		return // already sampled at exactly this instant
	}
	s.sample()
}

// seriesName returns the dump name for frozen-metric index i.
func (s *Sampler) seriesName(i int) (name, unit string) {
	if i < len(s.counters) {
		return s.counters[i].name, s.counters[i].unit
	}
	g := s.gauges[i-len(s.counters)]
	return g.name, g.unit
}

func (s *Sampler) check() {
	for i, v := range s.series {
		if len(v) != len(s.times) {
			name, _ := s.seriesName(i)
			panic(fmt.Sprintf("telemetry: series %q has %d samples, want %d", name, len(v), len(s.times)))
		}
	}
}
