package serve

import (
	"testing"

	"cellport/internal/sim"
)

// estOneRef is the per-request estimate computed straight from the
// Calibration maps — the reference the flat table (flatten) and every
// blade's incremental backlog are checked against.
func estOneRef(c *Calibration, r Request) sim.Duration {
	if est := c.estService(SchemeJob, r.Tall, 1); est > 0 {
		return est
	}
	return c.service(svcKey{Scheme: SchemeJob, Tall: r.Tall, K: 1}).Service
}

// checkBacklogs asserts the admission cost model's invariant for the
// rest of the test: at every step of every run's event loop, each blade's
// incrementally kept backlog equals Σ estOne over its queue, recomputed
// from the Calibration. The check must see at least one queued request,
// so a test that never builds a queue cannot pass it vacuously.
func checkBacklogs(t *testing.T) {
	t.Helper()
	failed := false
	queued := 0
	stepHook = func(p *pool) {
		for _, b := range p.blades {
			var want sim.Duration
			for _, q := range b.queue {
				want += estOneRef(p.cal, q)
			}
			queued += len(b.queue)
			if b.backlog != want && !failed {
				failed = true
				t.Errorf("blade %d at %v: backlog %v, recomputed Σ estOne over %d queued = %v",
					b.id, p.now, b.backlog, len(b.queue), want)
			}
		}
	}
	t.Cleanup(func() {
		stepHook = nil
		if queued == 0 {
			t.Error("backlog invariant never observed a queued request")
		}
	})
}

// TestFlatCalibrationMatchesMaps pins the flat view against the map
// lookups it replaces, for both geometries and every batch size.
func TestFlatCalibrationMatchesMaps(t *testing.T) {
	cal := mustCal(t)
	fc := cal.flatten(cal.MaxBatch())
	if fc.conclusive != cal.Conclusive() {
		t.Fatalf("flat conclusive %v, calibration says %v", fc.conclusive, cal.Conclusive())
	}
	if want := cal.service(svcKey{Scheme: SchemeJob, K: 1}).Warmup; fc.coldWarmup != want {
		t.Fatalf("flat cold warmup %v, want %v", fc.coldWarmup, want)
	}
	for _, tall := range []bool{false, true} {
		g := geomIdx(tall)
		if want := estOneRef(cal, Request{Tall: tall}); fc.est1[g] != want {
			t.Errorf("tall=%v: flat estOne %v, want %v", tall, fc.est1[g], want)
		}
		for k := 1; k <= cal.MaxBatch(); k++ {
			for s := Scheme(0); s < numSchemes; s++ {
				if want := cal.service(svcKey{Scheme: s, Tall: tall, K: k}); fc.svcs[s][g][k] != want {
					t.Errorf("tall=%v k=%d %v: flat svc %+v, want %+v", tall, k, s, fc.svcs[s][g][k], want)
				}
			}
			s, _, ok := cal.estBest(tall, k)
			if got := fc.pick[g][k]; got.scheme != s || got.ok != ok {
				t.Errorf("tall=%v k=%d: flat pick %+v, want {%v %v}", tall, k, got, s, ok)
			}
		}
	}
}
