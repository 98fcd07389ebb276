package sim_test

import (
	"testing"

	"github.com/hybridmig/hybridmig/internal/benchscen"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// The event-path scenario bodies live in internal/benchscen so the
// benchmark module's sim.* probes measure exactly what these benchmarks
// measure.

func BenchmarkAfterFire(b *testing.B) { benchscen.AfterFire(b) }

func BenchmarkEngineTimerChurn(b *testing.B) { benchscen.TimerChurn(b) }

// BenchmarkProcPingPong measures the process dispatch round trip: one
// sleeping process woken once per iteration.
func BenchmarkProcPingPong(b *testing.B) {
	e := sim.New()
	stop := false
	e.Go("pinger", func(p *sim.Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	// Let the process reach its first sleep.
	for e.Step() {
		if e.Now() >= 0.5 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("no event")
		}
	}
	b.StopTimer()
	stop = true
	e.Step()
	e.Shutdown()
}
