package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Due-wheel epochs: runEpoch runs only the wheels with a live event at
// or before the deadline and hands every other wheel the result RunUntil
// would have returned. The property below pins that against the full
// sweep — every wheel's RunUntil on every epoch, the protocol before the
// skip — on seeded storms that include a wheel whose lane holds only
// tombstones, processes blocked across barriers, and a permanent stall.

// sweepRun is the full-sweep epoch protocol, kept as the test oracle:
// every epoch runs RunUntil on every wheel in index order and notes
// stalls with errors.As on every result. It drives s's wheels and
// bookkeeping directly, so the same accessors read both runs.
func sweepRun(s *ShardedEngine, next func() (Time, bool), barrier func(Time)) error {
	sweep := func(t Time) []error {
		errs := make([]error, len(s.wheels))
		for i, w := range s.wheels {
			errs[i] = w.RunUntil(t)
		}
		return errs
	}
	for {
		t, ok := next()
		s.epoch++
		if !ok {
			s.barrier = Never
			return s.promote(sweep(Never))
		}
		s.barrier = t
		for i, err := range sweep(t) {
			var de *DeadlockError
			if errors.As(err, &de) {
				if s.stalled[i].epoch == 0 {
					s.stalled[i] = wheelStall{epoch: s.epoch, barrier: s.barrier}
				}
			} else {
				s.stalled[i].epoch = 0
			}
		}
		for _, w := range s.wheels {
			if now := w.Now(); now < t {
				s.barrierWait += t.Sub(now)
			}
		}
		barrier(t)
	}
}

// epochSnapshot is what one barrier observes of the engine: per-wheel
// clocks, event counts and stall records, plus the epoch count and the
// accumulated barrier wait.
type epochSnapshot struct {
	Now     []Time
	Events  []uint64
	Stalled []wheelStall
	Epochs  uint64
	Wait    Duration
}

func snapshot(s *ShardedEngine) epochSnapshot {
	snap := epochSnapshot{Epochs: s.Epochs(), Wait: s.BarrierWait()}
	for i, w := range s.wheels {
		snap.Now = append(snap.Now, w.Now())
		snap.Events = append(snap.Events, w.EventCount)
		snap.Stalled = append(snap.Stalled, s.stalled[i])
	}
	return snap
}

// dueStorm builds one seeded scenario on s and runs it with the given
// driver (ShardedEngine.Run or sweepRun), returning the wheel-major
// dispatch log, the snapshot taken at every barrier and the final one,
// and the run's error text. Wheel roles:
//   - wheel 0 holds a process blocked on a queue the coordinator only
//     signals at barrier 3, and between barriers the coordinator leaves
//     it a lane of tombstones (a timer scheduled at the wheel's clock and
//     cancelled at once), so its only lane entries are dead;
//   - wheel 1 (odd seeds) blocks for good after one wake-up, so the final
//     drain must report its first stall epoch;
//   - wheel 2 stays empty throughout;
//   - the rest carry random events and chained reschedules, plus
//     coordinator injections at barriers that land before, on, or past
//     the barrier.
func dueStorm(s *ShardedEngine, seed uint64, barriers int, drive func(*ShardedEngine, func() (Time, bool), func(Time)) error) ([]string, []epochSnapshot, string) {
	n := s.Wheels()
	logs := make([][]string, n) // per wheel: wheels may run concurrently
	note := func(w int, tag string) func() {
		return func() { logs[w] = append(logs[w], fmt.Sprintf("w%d %s @%d", w, tag, s.Wheel(w).Now())) }
	}
	horizon := Time(barriers+1) * Time(Millisecond)

	q0 := NewQueue("coordinator-signal")
	s.Wheel(0).Spawn("waiter", func(p *Proc) {
		p.Wait(q0)
		note(0, "woken")()
		p.Sleep(Millisecond / 2)
		note(0, "slept")()
	})
	q1, q1never := NewQueue("once"), NewQueue("never")
	if seed%2 == 1 {
		s.Wheel(1).Spawn("doomed", func(p *Proc) {
			p.Wait(q1)
			note(1, "woken")()
			p.Wait(q1never)
		})
	}
	for w := 3; w < n; w++ {
		rng := stormRand(seed + uint64(w)*0x9e3779b9)
		for e := 0; e < 4; e++ {
			w, e := w, e
			at := Time(rng.intn(int(horizon)))
			step := Duration(1 + rng.intn(int(Millisecond)))
			depth := rng.intn(3)
			var fire func(d int, at Time) func()
			fire = func(d int, at Time) func() {
				return func() {
					note(w, fmt.Sprintf("evt%d.%d", e, d))()
					if d > 0 {
						s.Wheel(w).At(at.Add(step), fire(d-1, at.Add(step)))
					}
				}
			}
			s.Wheel(w).At(at, fire(depth, at))
		}
	}

	crng := stormRand(seed ^ 0x5eed)
	var snaps []epochSnapshot
	bi := 0
	err := drive(s,
		func() (Time, bool) {
			if bi >= barriers {
				return 0, false
			}
			bi++
			return Time(bi) * Time(Millisecond), true
		},
		func(at Time) {
			snaps = append(snaps, snapshot(s))
			tm := s.Wheel(0).Schedule(s.Wheel(0).Now(), note(0, "cancelled"))
			tm.Cancel()
			switch bi {
			case 1:
				q1.WakeOne(s.Wheel(1))
			case 3:
				q0.WakeOne(s.Wheel(0))
			}
			if n > 3 {
				w := 3 + crng.intn(n-3)
				target := at.Add(Duration(crng.intn(int(2*Millisecond))) - Duration(Millisecond))
				s.Wheel(w).At(target, note(w, fmt.Sprintf("inj%d", bi)))
			}
		},
	)
	snaps = append(snaps, snapshot(s))
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	var log []string
	for _, l := range logs {
		log = append(log, l...)
	}
	return log, snaps, msg
}

// TestDueWheelEpochsMatchFullSweep is the due-wheel property: at every
// worker count, running only the due wheels gives the same dispatch log,
// the same per-wheel clocks, event counts and stall records at every
// barrier, the same Epochs and BarrierWait, and the same final error as
// the full sweep.
func TestDueWheelEpochsMatchFullSweep(t *testing.T) {
	run := func(s *ShardedEngine, next func() (Time, bool), barrier func(Time)) error {
		return s.Run(next, barrier)
	}
	for _, seed := range []uint64{1, 2, 7, 42, 20070710} {
		for _, wheels := range []int{3, 6, 16} {
			refLog, refSnaps, refErr := dueStorm(NewSharded(wheels, 1), seed, 5, sweepRun)
			if len(refLog) == 0 {
				t.Fatalf("seed %d wheels %d: degenerate storm, nothing dispatched", seed, wheels)
			}
			if (seed%2 == 1) != (refErr != "") {
				t.Fatalf("seed %d wheels %d: final error %q, want a deadlock exactly on odd seeds", seed, wheels, refErr)
			}
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("seed=%d wheels=%d workers=%d", seed, wheels, workers)
				log, snaps, err := dueStorm(NewSharded(wheels, workers), seed, 5, run)
				if !reflect.DeepEqual(log, refLog) {
					t.Fatalf("%s: dispatch log differs from the full sweep:\n got %v\nwant %v", name, log, refLog)
				}
				if !reflect.DeepEqual(snaps, refSnaps) {
					t.Fatalf("%s: barrier snapshots differ from the full sweep:\n got %+v\nwant %+v", name, snaps, refSnaps)
				}
				if err != refErr {
					t.Fatalf("%s: final error %q, full sweep %q", name, err, refErr)
				}
			}
		}
	}
}

// TestIdleEpochAllocatesNothing guards the epoch's fixed cost: over
// wheels that are empty, hold only an event past the deadline, or hold
// only a tombstoned lane entry, an epoch dispatches nothing and
// allocates nothing.
func TestIdleEpochAllocatesNothing(t *testing.T) {
	s := NewSharded(64, 4)
	s.Wheel(1).At(Time(Second), func() {})
	s.Wheel(2).Schedule(0, func() {}).Cancel()
	deadline := Time(Millisecond)
	allocs := testing.AllocsPerRun(100, func() { s.note(s.runEpoch(deadline)) })
	if allocs != 0 {
		t.Fatalf("idle epoch allocated %.1f times, want 0", allocs)
	}
	if n := s.EventCount(); n != 0 {
		t.Fatalf("idle epochs dispatched %d events", n)
	}
	if next, ok := s.Wheel(2).NextEventTime(); ok {
		t.Fatalf("tombstone-only wheel reports a live event at %v", next)
	}
}
