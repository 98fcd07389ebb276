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

// BenchmarkSleepElided measures a Sleep whose wake-up is the next event:
// one lone process sleeping under Run, which takes each wake in place
// instead of making the round trip BenchmarkProcPingPong times.
func BenchmarkSleepElided(b *testing.B) {
	e := sim.New()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParkOnCallback measures a process woken by a callback: each
// iteration arms a timer whose callback signals the Cond the process then
// waits on. Under Run the process hosts its park, firing the callback on
// its own coroutine and taking the wake-up in place.
func BenchmarkParkOnCallback(b *testing.B) {
	e := sim.New()
	var c sim.Cond
	signal := func() { c.Signal(e) }
	e.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			e.After(1, signal)
			c.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
