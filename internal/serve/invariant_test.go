package serve

import (
	"fmt"
	"strings"
	"testing"

	"cellport/internal/fault"
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
	addStepHook(t, func(p *pool) {
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
	})
	t.Cleanup(func() {
		if queued == 0 {
			t.Error("backlog invariant never observed a queued request")
		}
	})
}

// addStepHook chains fn after any step hook already installed, for the
// rest of the test.
func addStepHook(t *testing.T, fn func(*pool)) {
	prev := stepHook
	stepHook = func(p *pool) {
		if prev != nil {
			prev(p)
		}
		fn(p)
	}
	t.Cleanup(func() { stepHook = prev })
}

// earliestBusyRef is the next completion by a scan of every blade: the
// busy blade finishing first, lowest index on ties; nil when none is
// busy.
func earliestBusyRef(p *pool) *blade {
	var best *blade
	for _, b := range p.blades {
		if b.busy && (best == nil || b.done < best.done) {
			best = b
		}
	}
	return best
}

// poolFrontierRef is a pool's frontier by a scan of its blades: the least
// bladeScore over its admittable blades with queue room, and whether
// there is any such blade. It does not look at pl.active.
func poolFrontierRef(p *pool, blades []*blade) (sim.Duration, bool) {
	var best sim.Duration
	found := false
	for _, b := range blades {
		if !b.health.admittable() || len(b.queue) >= p.cfg.MaxQueue {
			continue
		}
		if s := p.bladeScore(b); !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

// frontierMismatch recomputes from scratch what the loop keeps
// incrementally — the next completion, each pool's frontier and room,
// and the min-tree roots — and describes the first disagreement, or
// returns "" when everything agrees.
func frontierMismatch(p *pool) string {
	busy := 0
	for _, b := range p.blades {
		if b.busy {
			busy++
			if b.hidx < 0 || b.hidx >= len(p.inflight) || p.inflight[b.hidx] != b {
				return fmt.Sprintf("busy blade %d is not at its heap slot %d", b.id, b.hidx)
			}
		}
	}
	if busy != len(p.inflight) {
		return fmt.Sprintf("%d busy blades, completion heap holds %d", busy, len(p.inflight))
	}
	if want := earliestBusyRef(p); want != nil && p.inflight[0] != want {
		return fmt.Sprintf("next completion: heap top blade %d (done %v), scan finds blade %d (done %v)",
			p.inflight[0].id, p.inflight[0].done, want.id, want.done)
	}
	f := p.fleet
	if f == nil {
		return ""
	}
	for _, pl := range f.pools {
		want, room := poolFrontierRef(p, pl.blades)
		room = room && pl.active
		if pl.hasRoom() != room {
			return fmt.Sprintf("pool %d (active %v): stored room %v, scan says %v", pl.id, pl.active, pl.hasRoom(), room)
		}
		if room && pl.frontier(p.now) != want {
			return fmt.Sprintf("pool %d: stored frontier %v, scan finds %v", pl.id, pl.frontier(p.now), want)
		}
		if f.busyTree.key[pl.id] != int64(pl.busyMin) || f.idleTree.key[pl.id] != int64(pl.idleMin) {
			return fmt.Sprintf("pool %d: min-tree leaves disagree with the stored pair", pl.id)
		}
	}
	for _, tr := range []*minTree{&f.busyTree, &f.idleTree} {
		low := 0
		for i, k := range tr.key {
			if k < tr.key[low] {
				low = i
			}
		}
		if got, _ := tr.top(); got != low {
			return fmt.Sprintf("min-tree root is pool %d, least leaf is pool %d", got, low)
		}
	}
	return ""
}

// checkFrontiers asserts, at every step of every run's event loop for the
// rest of the test, that the completion heap and the stored pool
// frontiers agree with a from-scratch scan (frontierMismatch). The check
// must see at least one busy blade and one pool without room, so a test
// that never loads a pool to its queue bound cannot pass it vacuously.
// On the classic single-pool path only the heap is stored; there the
// whole blade set is the pool whose room is observed.
func checkFrontiers(t *testing.T) {
	t.Helper()
	failed := false
	busy, full := 0, 0
	addStepHook(t, func(p *pool) {
		if msg := frontierMismatch(p); msg != "" && !failed {
			failed = true
			t.Errorf("at %v: %s", p.now, msg)
		}
		busy += len(p.inflight)
		if p.fleet == nil {
			if _, room := poolFrontierRef(p, p.blades); !room {
				full++
			}
			return
		}
		for _, pl := range p.fleet.pools {
			if pl.active && !pl.hasRoom() {
				full++
			}
		}
	})
	t.Cleanup(func() {
		if busy == 0 {
			t.Error("frontier invariant never observed a busy blade")
		}
		if full == 0 {
			t.Error("frontier invariant never observed a pool without room")
		}
	})
}

// frontierOracleConfig is a fleet at a quarter of the benchmark's pool
// count: 16 pools of 4 blades under a deep diurnal stream with flash
// crowds, a seeded rolling-restart plan, and an autoscaler sampling
// often enough to drain pools in the trough and revive them at the peak.
func frontierOracleConfig(t *testing.T) Config {
	t.Helper()
	cfg := quickConfig()
	cfg.Pools = 16
	cfg.Blades = 4
	cfg.MaxQueue = 4
	cfg.Requests = 2000
	cfg.Cal = mustCal(t)
	cfg.Load = &RateModel{DiurnalAmp: 0.9, FlashCount: 2, FlashFactor: 3}
	cfg.OfferedRPS = 0.6 * cfg.Cal.PerBladeCapacity() * float64(cfg.Pools*cfg.Blades)
	span := sim.FromSeconds(float64(cfg.Requests) / cfg.OfferedRPS)
	cfg.Faults = fault.SeededFleet(5, cfg.Pools*cfg.Blades, span)
	cfg.Autoscale = &Autoscale{Interval: span / 64, Window: 2, High: 0.5}
	return cfg
}

// TestFrontierOracle runs the completion heap, the stored pool frontiers
// and the min-trees against the from-scratch scans at every loop step of
// a 64-blade chaos fleet that scales both ways, then shows the scans catch each kind of stale
// state: a blade that went busy without entering the heap, a completion
// moved without re-sifting, and a pool whose blades changed without a
// frontier refresh.
func TestFrontierOracle(t *testing.T) {
	t.Run("agrees", func(t *testing.T) {
		checkBacklogs(t)
		checkFrontiers(t)
		rep := mustRun(t, frontierOracleConfig(t))
		checkLedger(t, rep)
		// Both membership moves must run under the oracle.
		if rep.Fleet.ScaleUps == 0 || rep.Fleet.ScaleDowns == 0 {
			t.Fatalf("autoscaler moved %d pools up and %d down; the oracle must see both",
				rep.Fleet.ScaleUps, rep.Fleet.ScaleDowns)
		}
	})

	stale := []struct {
		name string
		// corrupt makes one piece of kept state stale and returns the
		// undo, or nil when this step offers nothing to corrupt.
		corrupt func(p *pool) func()
		want    string
	}{
		{
			name: "busy blade missing from the heap",
			corrupt: func(p *pool) func() {
				for _, b := range p.blades {
					if !b.busy {
						b.busy, b.done = true, p.now
						return func() { b.busy = false }
					}
				}
				return nil
			},
			want: "is not at its heap slot",
		},
		{
			name: "completion moved without a re-sift",
			corrupt: func(p *pool) func() {
				if len(p.inflight) < 2 {
					return nil
				}
				b, last := p.inflight[0], p.inflight[0].done
				for _, o := range p.inflight {
					last = max(last, o.done)
				}
				old := b.done
				b.done = last + 1
				return func() { b.done = old }
			},
			want: "next completion",
		},
		{
			name: "pool changed without a refresh",
			corrupt: func(p *pool) func() {
				for _, pl := range p.fleet.pools {
					if !pl.hasRoom() {
						continue
					}
					was := make([]health, len(pl.blades))
					for i, b := range pl.blades {
						was[i], b.health = b.health, healthDown
					}
					return func() {
						for i, b := range pl.blades {
							b.health = was[i]
						}
					}
				}
				return nil
			},
			want: "stored room true, scan says false",
		},
	}
	for _, tc := range stale {
		t.Run(tc.name, func(t *testing.T) {
			caught := ""
			addStepHook(t, func(p *pool) {
				if caught != "" || frontierMismatch(p) != "" {
					return
				}
				if undo := tc.corrupt(p); undo != nil {
					caught = frontierMismatch(p)
					if caught == "" {
						caught = "(nothing)"
					}
					undo()
				}
			})
			mustRun(t, frontierOracleConfig(t))
			if !strings.Contains(caught, tc.want) {
				t.Fatalf("stale state reported as %q, want a mismatch containing %q", caught, tc.want)
			}
		})
	}
}
