package collective

import (
	"testing"

	"coarse/internal/sim"
	"coarse/internal/telemetry"
)

// TestAllReduceBytesClosedForm checks the ring against the closed form
// of a contention-free ring allreduce, 2(p-1)/p·S/B plus the ALU time
// of the p-1 reduce-scatter rounds. Every round waits for its largest
// segment, ⌈S/p⌉ bytes, so at per-hop rate B and reduction rate A the
// call ends at exactly
//
//	2(p-1)·Seconds(⌈S/p⌉/B) + (p-1)·Seconds(⌈S/p⌉/A)
//
// with the ALU term zero when reductions are free. Independently, the
// ring's sent_bytes counter must read 2(p-1)·S: every segment crosses
// 2(p-1) hops. When p divides S that is p·RingBytesPerParticipant(S, p),
// the paper's Section III-F traffic model.
func TestAllReduceBytesClosedForm(t *testing.T) {
	const bw, alu = 3e6, 7e5 // bytes/sec, chosen so segment times round
	for _, tc := range []struct {
		p     int
		bytes int64
	}{
		{2, 4096}, {2, 4097},
		{3, 12288}, {3, 1000}, // 1000 = 334+333+333
		{4, 4096}, {4, 4099},
		{8, 1 << 20}, {8, 1<<20 + 5},
	} {
		for _, withALU := range []bool{false, true} {
			eng := sim.NewEngine()
			reg := telemetry.NewRegistry()
			r := NewRing(eng, tc.p, timedSend(eng, bw))
			r.AttachTelemetry(reg, "ring")
			if withALU {
				r.ALUBytesPerSec = alu
			}
			var done sim.Time = -1
			r.AllReduceBytes(tc.bytes, false, func() { done = eng.Now() })
			eng.Run()

			p := int64(tc.p)
			seg := float64((tc.bytes + p - 1) / p)
			want := sim.Time(2*(p-1)) * sim.Seconds(seg/bw)
			if withALU {
				want += sim.Time(p-1) * sim.Seconds(seg/alu)
			}
			if done != want {
				t.Errorf("p=%d S=%d ALU=%v: done at %v, want %v", tc.p, tc.bytes, withALU, done, want)
			}
			sent := r.sentBytes.Value()
			if want := float64(2 * (p - 1) * tc.bytes); sent != want {
				t.Errorf("p=%d S=%d ALU=%v: sent %v bytes, want 2(p-1)·S = %v", tc.p, tc.bytes, withALU, sent, want)
			}
			if tc.bytes%p == 0 {
				if want := float64(p * RingBytesPerParticipant(tc.bytes, tc.p)); sent != want {
					t.Errorf("p=%d S=%d: sent %v bytes, want p·RingBytesPerParticipant = %v", tc.p, tc.bytes, sent, want)
				}
			}
		}
	}
}

func TestAllReduceBytesUnevenPayload(t *testing.T) {
	// Payloads that don't divide evenly across participants complete,
	// every round waits for the largest segment, every byte crosses
	// 2(p-1) hops, and the call takes no less time than an even payload
	// one byte smaller.
	const p, bw = 3, 1e6
	run := func(bytes int64) (sim.Time, float64) {
		eng := sim.NewEngine()
		reg := telemetry.NewRegistry()
		r := NewRing(eng, p, timedSend(eng, bw))
		r.AttachTelemetry(reg, "ring")
		var done sim.Time = -1
		r.AllReduceBytes(bytes, false, func() { done = eng.Now() })
		eng.Run()
		return done, r.sentBytes.Value()
	}
	done, sent := run(1000) // 1000 = 334+333+333
	if done < 0 {
		t.Fatal("uneven allreduce never completed")
	}
	if want := sim.Time(2*(p-1)) * sim.Seconds(334/bw); done != want {
		t.Fatalf("uneven allreduce took %v, want %v", done, want)
	}
	if sent != 2*(p-1)*1000 {
		t.Fatalf("sent %v bytes, want %d", sent, 2*(p-1)*1000)
	}
	if even, _ := run(999); done < even {
		t.Fatalf("uneven payload took %v, less than the even %v", done, even)
	}
}

func TestAllReduceBytesALUChargedOnReduceRoundsOnly(t *testing.T) {
	eng := sim.NewEngine()
	p := 4
	r := NewRing(eng, p, timedSend(eng, 1024))
	r.ALUBytesPerSec = 1024
	var done sim.Time
	r.AllReduceBytes(4096, false, func() { done = eng.Now() })
	eng.Run()
	segSecs := 1024.0 / 1024 // 1s per segment transfer or reduce
	want := sim.Seconds(float64(p-1)*segSecs*2 + float64(p-1)*segSecs)
	if done != want {
		t.Fatalf("took %v, want %v (ALU only on reduce-scatter rounds)", done, want)
	}
}

func TestAllReduceBytesSingleParticipant(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRing(eng, 1, timedSend(eng, 1e6))
	var done sim.Time = -1
	r.AllReduceBytes(1<<20, false, func() { done = eng.Now() })
	eng.Run()
	if done != 0 {
		t.Fatalf("single participant should complete instantly, got %v", done)
	}
}

func TestAllReduceBytesNegativePanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRing(eng, 2, timedSend(eng, 1e6))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.AllReduceBytes(-1, false, nil)
}
