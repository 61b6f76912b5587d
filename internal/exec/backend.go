package exec

import (
	"fmt"
	"sync"
	"time"

	"cellport/internal/img"
	"cellport/internal/marvel"
	"cellport/internal/metrics"
	"cellport/internal/trace"
)

// Backend runs MARVEL batch points for real on the work-stealing pool,
// as a marvel.ExecBackend. The task graph follows the point's
// marvel.Schedule — the one the simulator runs — structurally:
//
//   - each extraction kernel's image traversal follows the simulated
//     kernel's own slice plan (marvel.ExecPlan — same local-store
//     budget, halos and granularity), with the slices of one lane
//     chained as continuations so a lane runs its slices in order;
//   - lanes launch in the schedule's order, racing when it is Parallel
//     and one at a time otherwise; Replicated chains each detection
//     onto its own lane, else the four detections run serially on one
//     "detect" lane after the extractions;
//   - an Overlap schedule (data distribution, Pipelined) double-buffers
//     the pixel block and preprocesses image i+1 while image i's lanes
//     run — the same overlap the estimator credits the scheme with;
//   - the accumulators are marvel's own (marvel.NewAccumulator), so
//     outputs are bit-exact against the host references at any worker
//     count: parallelism is across lanes and slices of independent
//     accumulators, never inside one.
//
// Everything it measures is host wall clock; nothing here touches
// virtual time except to encode trace timestamps via trace.WallNanos.
type Backend struct {
	ex         *Executor
	arts       *marvel.ArtifactCache
	reps       int
	instrument bool
	now        func() time.Duration

	// traceMu serializes span recording: lanes finish concurrently and
	// trace.Recorder is not thread-safe.
	traceMu sync.Mutex
	rec     *trace.Recorder
}

// Options configures a Backend.
type Options struct {
	// Workers is the pool width (<= 0 selects GOMAXPROCS).
	Workers int
	// Reps is how many times Execute runs each point's graph, keeping
	// the fastest wall time (default 3). Outputs come from the last rep.
	Reps int
	// Artifacts supplies the model set and host references; nil computes
	// privately.
	Artifacts *marvel.ArtifactCache
	// Instrument records wall-clock spans and "exec" metrics on each
	// returned run.
	Instrument bool
	// Now overrides the wall clock (elapsed time since an arbitrary
	// epoch). Tests inject a deterministic clock; nil selects the host
	// monotonic clock.
	Now func() time.Duration
}

// NewBackend starts a backend and its worker pool; Close releases the
// workers.
func NewBackend(o Options) *Backend {
	b := &Backend{
		ex:         New(o.Workers),
		arts:       o.Artifacts,
		reps:       o.Reps,
		instrument: o.Instrument,
		now:        o.Now,
	}
	if b.reps <= 0 {
		b.reps = 3
	}
	if b.now == nil {
		start := time.Now()
		b.now = func() time.Duration { return time.Since(start) }
	}
	return b
}

// Close stops the worker pool after draining.
func (b *Backend) Close() { b.ex.Close() }

// Workers reports the pool width.
func (b *Backend) Workers() int { return b.ex.Workers() }

// span records one wall-clock span when instrumenting the current rep.
func (b *Backend) span(lane string, start, end time.Duration, kind trace.Kind, label string) {
	if b.rec == nil {
		return
	}
	b.traceMu.Lock()
	b.rec.Span(lane, trace.WallNanos(start.Nanoseconds()), trace.WallNanos(end.Nanoseconds()), kind, label)
	b.traceMu.Unlock()
}

// Execute implements marvel.ExecBackend: it runs the point's batch
// graph Reps times and reports the fastest wall time together with the
// outputs of the final rep.
func (b *Backend) Execute(p marvel.ExecPoint) (*marvel.ExecRun, error) {
	w := p.Workload
	if w.Images <= 0 || w.W <= 0 || w.H <= 0 {
		return nil, fmt.Errorf("exec: bad workload %+v", w)
	}
	sched, err := p.Scenario.Schedule()
	if err != nil {
		return nil, err
	}
	ms, err := b.arts.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	plans := map[marvel.KernelID][]img.Slice{}
	for _, id := range sched.Order {
		if plans[id], err = marvel.ExecPlan(id, p.Variant, w.W, w.H); err != nil {
			return nil, err
		}
	}

	run := &marvel.ExecRun{Workers: b.ex.Workers(), Reps: b.reps}
	var reg *metrics.Registry
	for rep := 0; rep < b.reps; rep++ {
		last := rep == b.reps-1
		if b.instrument && last {
			b.rec = trace.NewRecorder()
		}
		s0 := b.ex.Stats()
		t0 := b.now()
		images := b.runBatch(p, sched, ms, plans)
		wall := (b.now() - t0).Nanoseconds()
		if run.WallNS == 0 || wall < run.WallNS {
			run.WallNS = wall
		}
		if last {
			s1 := b.ex.Stats()
			run.Images = images
			run.Tasks = s1.Ran - s0.Ran
			run.Steals = s1.Steals - s0.Steals
			run.Stolen = s1.Stolen - s0.Stolen
		}
	}
	if b.instrument {
		run.Trace, b.rec = b.rec, nil
		reg = metrics.NewRegistry()
		reg.Counter("exec", "wall_ns").Add(run.WallNS)
		reg.Counter("exec", "tasks").Add(int64(run.Tasks))
		reg.Counter("exec", "steals").Add(int64(run.Steals))
		reg.Counter("exec", "stolen").Add(int64(run.Stolen))
		reg.Gauge("exec", "workers").Set(int64(run.Workers))
		reg.Gauge("exec", "reps").Set(int64(run.Reps))
		run.Metrics = reg.Snapshot()
	}
	return run, nil
}

// laneOut is one extraction lane's result: the finalized feature vector
// and (when the lane chain includes detection) the float32-rounded
// concept score.
type laneOut struct {
	id    marvel.KernelID
	vec   []float32
	score float64
}

// batchState carries one rep's buffers through run.
type batchState struct {
	b      *Backend
	p      marvel.ExecPoint
	ms     *marvel.ModelSet
	plans  map[marvel.KernelID][]img.Slice
	stride int
	bufs   [][]byte
}

// runBatch executes one rep of the point's task graph.
func (b *Backend) runBatch(p marvel.ExecPoint, sched marvel.Schedule, ms *marvel.ModelSet, plans map[marvel.KernelID][]img.Slice) []marvel.ImageResult {
	w := p.Workload
	st := &batchState{b: b, p: p, ms: ms, plans: plans, stride: img.StrideFor(w.W)}
	numBufs := 1
	if sched.Overlap {
		numBufs = 2
	}
	for i := 0; i < numBufs; i++ {
		st.bufs = append(st.bufs, make([]byte, st.stride*w.H))
	}
	return st.run(sched)
}

// preprocess regenerates image n (the decode analog of the PPE's
// per-image preprocessing — real per-pixel work, not a memcpy of a
// cached frame) and stores it strided into pixel buffer buf.
func (st *batchState) preprocess(n, buf int) {
	w := st.p.Workload
	t0 := st.b.now()
	dec := img.Synthesize(img.CorpusSeed(w.Seed, n), w.W, w.H)
	dst := st.bufs[buf]
	for y := 0; y < w.H; y++ {
		copy(dst[y*st.stride:], dec.Row(y))
	}
	st.b.span("pre", t0, st.b.now(), trace.KindIO, fmt.Sprintf("img%d", n))
}

// processSlice runs one slice of a lane: wrap the band in the pixel
// buffer (the analog of the kernel's view of its DMA'd local-store
// band) and fold its payload rows into the accumulator.
func (st *batchState) processSlice(acc marvel.Accumulator, buf int, s img.Slice, lane string, n, si int) {
	t0 := st.b.now()
	rows := s.TransferRows()
	band := img.Wrap(st.bufs[buf][s.TransferY0()*st.stride:][:rows*st.stride], st.p.Workload.W, rows, st.stride)
	acc.Process(band, s.HaloTop, s.HaloTop+s.PayloadRows())
	st.b.span(lane, t0, st.b.now(), trace.KindCompute, fmt.Sprintf("img%d/slice%d", n, si))
}

// extractLane builds one kernel's slice chain over pixel buffer buf for
// image n: slice i+1 is a continuation of slice i (so the lane stays on
// one worker unless stolen), ending in finalize.
func (st *batchState) extractLane(id marvel.KernelID, buf, n int) *Future[laneOut] {
	slices := st.plans[id]
	acc := marvel.NewAccumulator(id)
	lane := id.String()
	f := Go(st.b.ex, func() struct{} {
		st.processSlice(acc, buf, slices[0], lane, n, 0)
		return struct{}{}
	})
	for si := 1; si < len(slices); si++ {
		si := si
		f = Then(st.b.ex, f, func(struct{}) struct{} {
			st.processSlice(acc, buf, slices[si], lane, n, si)
			return struct{}{}
		})
	}
	return Then(st.b.ex, f, func(struct{}) laneOut {
		t0 := st.b.now()
		vec := acc.Finalize()
		st.b.span(lane, t0, st.b.now(), trace.KindCompute, fmt.Sprintf("img%d/finalize", n))
		return laneOut{id: id, vec: vec}
	})
}

// detect runs o's concept detection on lane, rounding the score to
// float32 exactly as the SPE kernel reports it.
func (st *batchState) detect(o *laneOut, lane string, n int) {
	t0 := st.b.now()
	o.score = float64(float32(st.ms.Model(o.id).Decision(o.vec)))
	st.b.span(lane, t0, st.b.now(), trace.KindCompute, fmt.Sprintf("img%d/detect-%s", n, o.id))
}

// run drives the batch one image at a time under sched. Extraction
// lanes launch in sched.Order: all at once when Parallel, otherwise
// each runs to completion before the next starts. Replicated chains
// each detection onto its own lane; otherwise the four detections run
// serially on one "detect" lane once every extraction is done. With
// Overlap, the orchestrator preprocesses image n+1 into the other pixel
// buffer while image n's lanes run.
func (st *batchState) run(sched marvel.Schedule) []marvel.ImageResult {
	w := st.p.Workload
	out := make([]marvel.ImageResult, 0, w.Images)
	if sched.Overlap {
		st.preprocess(0, 0)
	}
	for n := 0; n < w.Images; n++ {
		buf := n % len(st.bufs)
		if !sched.Overlap {
			st.preprocess(n, 0)
		}
		lanes := make([]*Future[laneOut], 0, len(sched.Order))
		for _, id := range sched.Order {
			f := st.extractLane(id, buf, n)
			if sched.Replicated {
				lane := id.String()
				f = Then(st.b.ex, f, func(o laneOut) laneOut {
					st.detect(&o, lane, n)
					return o
				})
			}
			if !sched.Parallel {
				f.Wait()
			}
			lanes = append(lanes, f)
		}
		if sched.Overlap && n+1 < w.Images {
			st.preprocess(n+1, (n+1)%len(st.bufs))
		}
		all := WhenAll(st.b.ex, lanes)
		if !sched.Replicated {
			all = Then(st.b.ex, all, func(os []laneOut) []laneOut {
				for i := range os {
					st.detect(&os[i], "detect", n)
				}
				return os
			})
		}
		var r marvel.ImageResult
		for _, o := range all.Wait() {
			r.Set(o.id, o.vec, o.score)
		}
		out = append(out, r)
	}
	return out
}
