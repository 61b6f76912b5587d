package sim

import (
	"reflect"
	"testing"
)

// Tests for the conservative-lookahead primitives: Engine.NextEventTime,
// ShardedEngine.Horizon, the barrier-wait accounting, and the stall
// bookkeeping the lookahead coordinator leans on.

func TestNextEventTimeEmpty(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextEventTime(); ok {
		t.Fatalf("empty engine reported a next event at %v", at)
	}
}

func TestNextEventTimeHeapAndLane(t *testing.T) {
	e := NewEngine()
	e.At(5*Time(Millisecond), func() {})
	if at, ok := e.NextEventTime(); !ok || at != 5*Time(Millisecond) {
		t.Fatalf("heap event: got (%v, %v), want (5ms, true)", at, ok)
	}
	// An event at the current instant goes to the same-timestamp lane, not
	// the heap; it must still lower the bound.
	e.At(0, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 0 {
		t.Fatalf("lane event: got (%v, %v), want (0, true)", at, ok)
	}
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if at, ok := e.NextEventTime(); !ok || at != 5*Time(Millisecond) {
		t.Fatalf("after draining the lane: got (%v, %v), want (5ms, true)", at, ok)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained engine still reports a pending event")
	}
}

func TestShardedHorizonMinOverWheels(t *testing.T) {
	s := NewSharded(3, 1)
	if h := s.Horizon(); h != Never {
		t.Fatalf("empty sharded engine horizon %v, want Never", h)
	}
	s.Wheel(0).At(3*Time(Millisecond), func() {})
	s.Wheel(1).At(Time(Millisecond), func() {})
	// Wheel 2 stays empty: an empty wheel must not drag the horizon down.
	if h := s.Horizon(); h != Time(Millisecond) {
		t.Fatalf("horizon %v, want 1ms (min over wheels)", h)
	}
}

// TestHorizonFence: a coordinator fence caps the horizon below any wheel
// event, clears back to the wheel minimum, and an all-empty engine with a
// fence reports the fence itself — the contract the serve chaos
// coordinator uses to keep lookahead windows from admitting across a
// scheduled blade fault no wheel knows about yet.
func TestHorizonFence(t *testing.T) {
	s := NewSharded(2, 1)
	s.SetFence(4 * Time(Millisecond))
	if h := s.Horizon(); h != 4*Time(Millisecond) {
		t.Fatalf("empty wheels: horizon %v, want the 4ms fence", h)
	}
	s.Wheel(0).At(6*Time(Millisecond), func() {})
	if h := s.Horizon(); h != 4*Time(Millisecond) {
		t.Fatalf("fence below wheel events: horizon %v, want 4ms", h)
	}
	s.Wheel(1).At(Time(Millisecond), func() {})
	if h := s.Horizon(); h != Time(Millisecond) {
		t.Fatalf("wheel event below fence: horizon %v, want 1ms", h)
	}
	s.SetFence(Never)
	if h := s.Horizon(); h != Time(Millisecond) {
		t.Fatalf("fence cleared: horizon %v, want 1ms", h)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if h := s.Horizon(); h != Never {
		t.Fatalf("drained, no fence: horizon %v, want Never", h)
	}
}

// TestHorizonAfter: the O(1) single-wheel refresh must agree with a full
// Horizon() recompute whenever only that wheel was touched — including
// under a fence, which HorizonAfter never needs to re-read because
// touching a wheel cannot raise the bound.
func TestHorizonAfter(t *testing.T) {
	s := NewSharded(3, 1)
	s.SetFence(9 * Time(Millisecond))
	s.Wheel(1).At(7*Time(Millisecond), func() {})
	h := s.Horizon()
	if h != 7*Time(Millisecond) {
		t.Fatalf("horizon %v, want 7ms", h)
	}
	// An event later than the current bound must not move it.
	s.Wheel(0).At(8*Time(Millisecond), func() {})
	if got := s.HorizonAfter(0, h); got != h {
		t.Fatalf("later event moved the horizon: got %v, want %v", got, h)
	}
	// An earlier event on the touched wheel pulls it down, matching the
	// full recompute.
	s.Wheel(2).At(2*Time(Millisecond), func() {})
	got := s.HorizonAfter(2, h)
	if want := s.Horizon(); got != want || got != 2*Time(Millisecond) {
		t.Fatalf("HorizonAfter %v, full Horizon %v, want 2ms both", got, want)
	}
	// From an unbounded prior the refresh falls to the touched wheel's
	// own next event.
	if got := s.HorizonAfter(0, Never); got != 8*Time(Millisecond) {
		t.Fatalf("HorizonAfter from Never: got %v, want 8ms", got)
	}
}

// TestHorizonScheduleNoDoubleRun pins the boundary semantics the serve
// coordinator relies on: driving barriers by next() = Horizon() runs an
// event landing exactly on the horizon exactly once, even when it chains
// a same-instant successor, and the schedule terminates.
func TestHorizonScheduleNoDoubleRun(t *testing.T) {
	s := NewSharded(2, 2)
	at := Time(Millisecond)
	// One counter per wheel: the two wheels run concurrently, so they
	// must not share a map.
	counts := []map[string]int{{}, {}}
	s.Wheel(0).At(at, func() {
		counts[0]["w0"]++
		// Same-instant chained successor: lands on the already-passed
		// horizon, must run in a later epoch without re-running w0.
		s.Wheel(0).At(at, func() { counts[0]["w0chain"]++ })
	})
	s.Wheel(1).At(at, func() { counts[1]["w1"]++ })
	err := s.Run(func() (Time, bool) {
		h := s.Horizon()
		if h == Never {
			return 0, false
		}
		return h, true
	}, func(Time) {})
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range map[string]int{"w0": 0, "w0chain": 0, "w1": 1} {
		if counts[w][k] != 1 {
			t.Fatalf("event %s ran %d times, want exactly once (counts %v)", k, counts[w][k], counts)
		}
	}
}

// TestHorizonScheduleStorm fuzzes the horizon negotiation: for seeded
// event storms, a coordinator that places every barrier on the current
// horizon must reproduce the drain schedule's per-wheel dispatch logs and
// event count exactly, at every worker count — in particular no event on
// the horizon may be double-run or skipped. BarrierWait must also be a
// pure function of the schedule (identical across worker counts).
func TestHorizonScheduleStorm(t *testing.T) {
	run := func(spec stormSpec, seed uint64, workers int, horizonSchedule bool) ([]string, uint64, Duration) {
		s := NewSharded(spec.wheels, workers)
		logs := make([][]string, spec.wheels)
		span := Time(spec.barriers+1) * Time(Millisecond)
		for w := 0; w < spec.wheels; w++ {
			rng := stormRand(seed + uint64(w)*0x9e3779b9)
			for e := 0; e < spec.events; e++ {
				at := Time(rng.intn(int(span)))
				depth := rng.intn(spec.chain + 1)
				step := Duration(1 + rng.intn(int(Millisecond)))
				var fire func(d int, at Time) func()
				w, e := w, e
				fire = func(d int, at Time) func() {
					return func() {
						logs[w] = append(logs[w], fmtLog(w, e*100+d, s.Wheel(w).Now()))
						if d > 0 {
							s.Wheel(w).At(at.Add(step), fire(d-1, at.Add(step)))
						}
					}
				}
				s.Wheel(w).At(at, fire(depth, at))
			}
		}
		var err error
		if horizonSchedule {
			err = s.Run(func() (Time, bool) {
				h := s.Horizon()
				if h == Never {
					return 0, false
				}
				return h, true
			}, func(Time) {})
		} else {
			err = s.Drain()
		}
		if err != nil {
			t.Fatalf("storm (workers=%d, horizon=%v): %v", workers, horizonSchedule, err)
		}
		var flat []string
		for _, l := range logs {
			flat = append(flat, l...)
		}
		return flat, s.EventCount(), s.BarrierWait()
	}

	specs := []struct {
		name string
		spec stormSpec
		seed uint64
	}{
		{"dense", stormSpec{wheels: 3, events: 10, barriers: 4, chain: 3}, 11},
		{"wide", stormSpec{wheels: 8, events: 5, barriers: 2, chain: 2}, 20070710},
		{"collisions", stormSpec{wheels: 2, events: 16, barriers: 1, chain: 1}, 5},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			refLog, refCount, _ := run(tc.spec, tc.seed, 1, false)
			if len(refLog) == 0 {
				t.Fatal("degenerate storm: no events dispatched")
			}
			var wait Duration
			for i, workers := range []int{1, 2, 8} {
				log, count, w := run(tc.spec, tc.seed, workers, true)
				if count != refCount {
					t.Fatalf("workers=%d horizon schedule dispatched %d events, want %d (double-run or skip on the horizon)",
						workers, count, refCount)
				}
				if !reflect.DeepEqual(log, refLog) {
					t.Fatalf("workers=%d horizon schedule diverged from drain:\n got %v\nwant %v", workers, log, refLog)
				}
				if i == 0 {
					wait = w
				} else if w != wait {
					t.Fatalf("workers=%d barrier wait %v, want %v (must be schedule-determined)", workers, w, wait)
				}
			}
		})
	}
}

func fmtLog(w, id int, at Time) string {
	return string(rune('a'+w)) + "#" + itoa(id) + "@" + itoa(int(at))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestShardedStallEpochClearsOnResolve is the note-reset regression test:
// a wheel that stalls mid-run, is resolved by the coordinator, and later
// deadlocks for good must report the *final* epoch, not the long-resolved
// first stall.
func TestShardedStallEpochClearsOnResolve(t *testing.T) {
	s := NewSharded(2, 1)
	q := NewQueue("work")
	q2 := NewQueue("never-signalled")
	s.Wheel(0).Spawn("worker", func(p *Proc) {
		p.Wait(q) // stalls in epoch 1, resolved at its barrier
		p.Sleep(10 * Millisecond)
		p.Wait(q2) // permanent: no one ever signals q2
	})
	// Wheel 1 has real work so every epoch advances something.
	s.Wheel(1).At(Time(Millisecond), func() {})
	s.Wheel(1).At(3*Time(Millisecond), func() {})

	barriers := []Time{Time(Millisecond), 2 * Time(Millisecond)}
	bi := 0
	err := s.Run(func() (Time, bool) {
		if bi >= len(barriers) {
			return 0, false
		}
		bt := barriers[bi]
		bi++
		return bt, true
	}, func(at Time) {
		if at == barriers[0] {
			q.WakeOne(s.Wheel(0)) // resolve the first stall
		}
	})
	if err == nil {
		t.Fatal("expected the final drain to surface the permanent deadlock")
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("error type %T, want *DeadlockError", err)
	}
	// Epoch 1: stall on q (recorded). Epoch 2: resumed, sleeping past the
	// barrier — the stall record must clear here. Epoch 3 (final drain):
	// the permanent stall on q2. A stale record would report epoch 1.
	if de.Epoch != 3 || de.Barrier != Never {
		t.Fatalf("deadlock reported epoch %d barrier %v, want epoch 3 barrier Never (stale stall record not cleared)",
			de.Epoch, de.Barrier)
	}
}

// TestBarrierWaitAccounting checks the accumulated virtual idle metric on
// a hand-computable schedule.
func TestBarrierWaitAccounting(t *testing.T) {
	s := NewSharded(2, 1)
	s.Wheel(0).At(2*Time(Millisecond), func() {})
	s.Wheel(1).At(5*Time(Millisecond), func() {})
	fired := false
	err := s.Run(func() (Time, bool) {
		if fired {
			return 0, false
		}
		fired = true
		return 6 * Time(Millisecond), true
	}, func(Time) {})
	if err != nil {
		t.Fatal(err)
	}
	// Wheel 0 quiesces at 2ms (waits 4ms), wheel 1 at 5ms (waits 1ms); the
	// final drain has no finite deadline and adds nothing.
	if want := 5 * Millisecond; s.BarrierWait() != want {
		t.Fatalf("barrier wait %v, want %v", s.BarrierWait(), want)
	}
}
