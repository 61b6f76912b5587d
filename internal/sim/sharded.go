package sim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedEngine runs a set of independent event wheels — one Engine per
// shard — under a conservative epoch-barrier protocol, so one simulation
// run can execute on many cores without giving up determinism.
//
// The model: shards own disjoint simulated state and never touch each
// other's wheels directly. All cross-shard interaction happens at
// barriers, where a single coordinator runs serially with every wheel
// quiescent. Between barriers the wheels advance independently — each one
// is a deterministic sequential engine, so its event order is a pure
// function of its own inputs regardless of which goroutine happens to
// drive it or how the other wheels are scheduled. Barriers execute in a
// fixed order (driven by the caller's virtual-time schedule), and the
// coordinator observes the wheels in wheel-index order, so the whole run
// is byte-identical at any worker count, including the fully sequential
// workers=1 fallback (which drives the wheels one after another through
// the exact same code path).
//
// A ShardedEngine is not itself an Engine: it has no global clock. Each
// wheel keeps its own virtual time, advanced only by its own events; the
// barrier deadline is the only global synchronization point.
type ShardedEngine struct {
	wheels  []*Engine
	workers int

	epoch   uint64 // barrier rounds started (the final drain counts as one)
	barrier Time   // deadline of the current/last epoch (Never for the drain)

	// barrierWait accumulates the virtual idle time each barrier imposes:
	// the sum over wheels of (barrier deadline − wheel clock) when the
	// wheel quiesced before the deadline. It measures how pessimistic the
	// barrier schedule is — a lookahead coordinator exists to shrink it.
	barrierWait Duration

	// stalled records, per wheel, the epoch at which the wheel last drained
	// its queue with processes still blocked (a would-be deadlock that the
	// coordinator may still resolve by injecting events at a barrier).
	stalled []wheelStall

	// fence is the earliest coordinator-scheduled instant (Never if none):
	// a future event the coordinator has committed to but not yet injected
	// into any wheel, e.g. a planned blade fault. Horizon() never reports
	// past it, so lookahead windows cannot admit across such an instant
	// even though no wheel knows about it yet.
	fence Time

	// Epoch scratch, reused so an epoch over idle wheels allocates
	// nothing: the per-wheel RunUntil results, and the wheels due to run.
	errs []error
	due  []int
}

// wheelStall is one wheel's recorded mid-epoch stall: the epoch and
// barrier deadline at which the wheel first drained its queue with
// processes still blocked. A zero epoch means "not stalled"; note clears
// the record when a later epoch resolves the stall.
type wheelStall struct {
	epoch   uint64
	barrier Time
}

// NewSharded builds a sharded engine with the given number of wheels.
// workers bounds how many wheels execute concurrently between barriers:
// 0 selects GOMAXPROCS, 1 selects the sequential fallback. The worker
// count never affects results, only host wall time.
func NewSharded(wheels, workers int) *ShardedEngine {
	if wheels < 1 {
		panic("sim: NewSharded needs at least one wheel")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &ShardedEngine{workers: workers}
	s.wheels = make([]*Engine, wheels)
	for i := range s.wheels {
		s.wheels[i] = NewEngine()
	}
	s.stalled = make([]wheelStall, wheels)
	s.errs = make([]error, wheels)
	s.due = make([]int, 0, wheels)
	s.fence = Never
	return s
}

// SetFence publishes the earliest instant the coordinator has scheduled
// outside the wheels (Never to clear). It caps Horizon(): external work
// with timestamps at or past the fence must go through a barrier, where
// the coordinator can first materialize whatever it planned at the fence
// instant. Only the coordinator may call it (from next/barrier, or
// before Run).
func (s *ShardedEngine) SetFence(t Time) { s.fence = t }

// Wheels reports the number of wheels.
func (s *ShardedEngine) Wheels() int { return len(s.wheels) }

// Wheel returns wheel i. The caller may schedule events on it freely
// before Run and from within barrier callbacks; scheduling from another
// wheel's events is a data race and breaks determinism.
func (s *ShardedEngine) Wheel(i int) *Engine { return s.wheels[i] }

// EventCount reports the total events dispatched across all wheels.
func (s *ShardedEngine) EventCount() uint64 {
	var n uint64
	for _, w := range s.wheels {
		n += w.EventCount
	}
	return n
}

// Epochs reports how many epochs have started (the final drain included).
func (s *ShardedEngine) Epochs() uint64 { return s.epoch }

// BarrierWait reports the accumulated virtual idle time the barrier
// schedule has imposed so far: for every finished epoch with a finite
// deadline, the sum over wheels of how far short of the deadline each
// wheel's clock stopped. Purely a function of the schedule and the
// events, so it is byte-identical at any worker count.
func (s *ShardedEngine) BarrierWait() Duration { return s.barrierWait }

// Horizon reports the engine's conservative lookahead bound: the
// earliest pending event time across all wheels (min over wheels, taken
// in wheel-index order) capped by the coordinator fence (SetFence), or
// Never when every wheel is empty and no fence is set. While the wheels
// are quiescent — i.e. from the coordinator's next/barrier callbacks —
// nothing in the simulation can happen strictly before the horizon, so
// any external event (an arrival, an injection) with a timestamp
// strictly below it may be committed immediately without running an
// epoch: no wheel event can intervene, and no coordinator-scheduled
// instant is skipped. Scheduling new wheel events moves the horizon, so
// callers interleaving queries with injections must re-query after each
// one.
func (s *ShardedEngine) Horizon() Time {
	h := s.fence
	for _, w := range s.wheels {
		if t, ok := w.NextEventTime(); ok && t < h {
			h = t
		}
	}
	return h
}

// HorizonAfter is the O(1) refresh of a previously computed horizon when
// only wheel w has been touched since: scheduling events on a wheel can
// only pull the horizon earlier, and only through that wheel's own next
// pending event, so min(prev, wheel w's next event) equals a full
// Horizon() recompute. A lookahead coordinator admitting a long run of
// external events into single wheels uses this to avoid rescanning every
// wheel per admission. prev must be a value returned by Horizon() or
// HorizonAfter() with no intervening fence change and no wheel other
// than w touched.
func (s *ShardedEngine) HorizonAfter(w int, prev Time) Time {
	if t, ok := s.wheels[w].NextEventTime(); ok && t < prev {
		return t
	}
	return prev
}

// Run executes the epoch-barrier protocol:
//
//	for next() reports a barrier time t:
//	    run every wheel up to t (concurrently, workers permitting)
//	    run barrier(t) serially with all wheels quiescent
//	when next() reports no more barriers:
//	    drain every wheel to completion and return
//
// next and barrier run on the caller's goroutine, always alone: the
// coordinator is the only code that may look across wheels, and it is the
// only legal channel for cross-wheel interaction (reading shard state,
// injecting events via Wheel(i)).
//
// A wheel that drains its queue mid-epoch with processes still blocked is
// not yet a failure — the coordinator may wake it at the next barrier —
// so such stalls are only recorded. At the final drain a stall is
// permanent: Run returns the stalled wheel's DeadlockError, annotated
// with the wheel index and epoch-barrier state (see DeadlockError), with
// the lowest wheel index winning deterministically when several wheels
// are stuck.
func (s *ShardedEngine) Run(next func() (Time, bool), barrier func(t Time)) error {
	for {
		t, ok := next()
		if !ok {
			s.epoch++
			s.barrier = Never
			return s.promote(s.runEpoch(Never))
		}
		s.epoch++
		s.barrier = t
		s.note(s.runEpoch(t))
		if t != Never {
			for _, w := range s.wheels {
				if now := w.Now(); now < t {
					s.barrierWait += t.Sub(now)
				}
			}
		}
		barrier(t)
	}
}

// Drain runs every wheel to completion with no barriers — the degenerate
// single-epoch schedule for fully independent shards (e.g. a grid of
// simulations that never interact).
func (s *ShardedEngine) Drain() error {
	return s.Run(func() (Time, bool) { return 0, false }, nil)
}

// runEpoch advances every wheel to the deadline and returns the per-wheel
// RunUntil results (engine scratch, valid until the next epoch). Only
// due wheels — a live event at or before the deadline — run; every other
// wheel gets the result RunUntil would have returned without dispatching
// anything (Engine.idle), so clocks, EventCount and stall notes are as
// if it had run. Due wheels are shared out by an atomic work-stealing
// counter among up to `workers` goroutines, the caller included; with
// one worker or one due wheel they run in index order on the caller. The
// WaitGroup gives the coordinator a happens-before edge over every
// wheel's writes.
func (s *ShardedEngine) runEpoch(deadline Time) []error {
	errs, due := s.errs, s.due[:0]
	for i, w := range s.wheels {
		idle, err := w.idle(deadline)
		errs[i] = err
		if !idle {
			due = append(due, i)
		}
	}
	s.due = due
	workers := s.workers
	if workers > len(due) {
		workers = len(due)
	}
	if workers <= 1 {
		for _, i := range due {
			errs[i] = s.wheels[i].RunUntil(deadline)
		}
		return errs
	}
	var idx atomic.Int64
	run := func() {
		for {
			k := int(idx.Add(1)) - 1
			if k >= len(due) {
				return
			}
			i := due[k]
			errs[i] = s.wheels[i].RunUntil(deadline)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return errs
}

// note records mid-epoch stalls (keeping the first stall epoch) and
// clears stalls that resolved. A nil result — by far the common case —
// takes the fast path before errors.As, which would heap-allocate its
// target.
func (s *ShardedEngine) note(errs []error) {
	for i, err := range errs {
		if err == nil {
			s.stalled[i].epoch = 0
			continue
		}
		var de *DeadlockError
		if errors.As(err, &de) {
			if s.stalled[i].epoch == 0 {
				s.stalled[i].epoch = s.epoch
				s.stalled[i].barrier = s.barrier
			}
		} else {
			s.stalled[i].epoch = 0
		}
	}
}

// promote turns the final drain's per-wheel results into Run's return
// value: the lowest-indexed wheel's error wins, and DeadlockErrors are
// annotated with the shard context so a stalled shard never surfaces as a
// bare global deadlock table.
func (s *ShardedEngine) promote(errs []error) error {
	for i, err := range errs {
		if err == nil {
			continue
		}
		var de *DeadlockError
		if errors.As(err, &de) {
			de.Sharded = true
			de.Wheel = i
			de.Epoch = s.epoch
			de.Barrier = s.barrier
			if st := s.stalled[i]; st.epoch != 0 {
				de.Epoch = st.epoch
				de.Barrier = st.barrier
			}
		}
		return err
	}
	return nil
}
