package serve

import (
	"testing"

	"cellport/internal/sim"
)

// estOneRef is the per-request estimate recomputed from the estimator
// fit and the measured table — the reference every blade's incremental
// backlog is checked against.
func estOneRef(c *Calibration, r Request) sim.Duration {
	if est := c.estService(SchemeJob, r.Tall, 1); est > 0 {
		return est
	}
	return c.service(SchemeJob, r.Tall, 1).Service
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
