package serve

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// blade is one serving Cell blade: a bounded admission queue, the
// in-flight dispatch (if any), and the blade-local slice of the run's
// accounting, merged in blade-index order by report(). The blade's
// machine itself is not held here — dispatch timing comes from the
// calibrated service table, which was measured on a machine identical to
// the one this blade models (FullFidelity re-runs that machine per
// dispatch to prove it).
type blade struct {
	id   int
	lane string

	queue []Request
	spare []Request // recycled batch buffer (capacity MaxBatch, reused across dispatches)
	busy  bool
	hidx  int // position in the pool's completion heap; -1 while idle
	warm  bool
	start sim.Time // current dispatch start (batch work, after any warmup)
	done  sim.Time // current dispatch completion
	cur   []Request
	deg   bool // current dispatch runs degraded (supervised recovery)

	// backlog is the exact sum of estOne over queue, kept at every queue
	// mutation (admitInto, dispatch's shed and coalesce, killBlade) so
	// bladeScore is O(1) instead of a walk over the queue.
	backlog sim.Duration

	// shard is the fleet pool owning the blade (nil on the classic
	// single-pool path); its stored frontier is refreshed whenever the
	// blade's score or room changes.
	shard *poolShard

	// Lifecycle state (DESIGN.md §12). health gates admission;
	// stallRestore remembers the state a transient stall must restore.
	health       health
	stallRestore health
	// restartPending pairs a fault drain with its restart fire so the
	// fire can't claim an unrelated drain; parkPending marks an
	// autoscale drain, completed by maybePark once the blade is idle
	// and empty.
	restartPending bool
	parkPending    bool

	dispatches int
	requests   int
	busyTime   sim.Duration
	warmupTime sim.Duration

	// Blade-local run accounting, merged in blade-index order by report().
	served          int
	late            int
	degraded        int
	shedExpired     int
	shedRerouted    int // evicted, backoff overshot the deadline
	shedExhausted   int // evicted, retry budget exhausted
	rerouted        int // evictions sent back through admission
	crashes         int
	restarts        int
	stalls          int
	batches         int
	batchRequests   int
	schemeFallbacks int
	schemeBatches   [numSchemes]int
	latencies       []sim.Duration
	lastDone        sim.Time

	// rec records the blade's spans and instants when Config.Instrument
	// is set; nil otherwise, and every label is built only behind a
	// rec != nil check so bare runs format nothing.
	rec *trace.Recorder
}

// instant records a constant-label point event on an instrumented blade.
func (b *blade) instant(at sim.Time, label string) {
	if b.rec != nil {
		b.rec.Instant(b.lane, at, label)
	}
}

// pool is the deterministic serving event loop (DESIGN.md §9): one
// virtual clock advanced strictly by completion, lifecycle, autoscale,
// re-admission and arrival events. Completions at a timestamp are
// processed before arrivals at the same timestamp; simultaneous
// completions resolve by blade index.
type pool struct {
	cfg      Config
	cal      *Calibration
	deadline sim.Duration
	blades   []*blade
	rr       int
	now      sim.Time

	// inflight holds the busy blades keyed by (done, id), so the next
	// completion is the heap top.
	inflight completionHeap

	// fleet is the multi-pool routing/autoscaling layer (DESIGN.md §13);
	// nil selects the classic single-pool admission path. In fleet mode
	// p.blades still holds every blade (pool-major, blade-index order) —
	// the ledger merge and the lifecycle machinery are shared — while
	// fleet.pools partitions them for routing.
	fleet *fleetState

	shedRejected   int
	placeFallbacks int

	// Lifecycle state: the compiled blade-fault schedule (sorted,
	// consumed via fi) and the pending re-admissions heap.
	faultSched []bladeEvent
	fi         int
	reroutes   rerouteHeap
	rerouteSeq uint64

	// verify collects one job per dispatch when Config.FullFidelity is
	// set; Run replays them after the loop (verifyDispatches).
	verify []verifyJob

	// ctr records pool-wide trace events (autoscale actions, sheds with
	// no blade to blame) when Config.Instrument is set; nil otherwise.
	ctr *trace.Recorder

	// placeOrder scratch, hoisted out of the admission hot path.
	ordBuf   []*blade
	scoreBuf []sim.Duration
	idxBuf   []int
}

// stepHook, when set, runs before every step of the event loop. Tests
// set it to check incrementally kept state, such as blade backlogs,
// against a from-scratch recompute; it is nil otherwise.
var stepHook func(*pool)

// coordLane is the trace lane carrying pool-wide events, distinct from
// the per-blade lanes.
const coordLane = "coordinator"

func newPool(cfg Config, cal *Calibration, deadline sim.Duration) *pool {
	total := cfg.Blades
	if cfg.Pools > 0 {
		// Fleet mode: Blades is the per-pool size, the run owns
		// Pools × Blades blades in pool-major order.
		total = cfg.Blades * cfg.Pools
	}
	p := &pool{
		cfg:      cfg,
		cal:      cal,
		deadline: deadline,
		ordBuf:   make([]*blade, total),
		scoreBuf: make([]sim.Duration, total),
		idxBuf:   make([]int, total),
	}
	if cfg.Instrument {
		p.ctr = trace.NewRecorder()
	}
	for i := 0; i < total; i++ {
		b := &blade{
			id:    i,
			lane:  fmt.Sprintf("blade%d", i),
			spare: make([]Request, 0, cfg.MaxBatch),
			hidx:  -1,
		}
		if cfg.Instrument {
			b.rec = trace.NewRecorder()
		}
		p.blades = append(p.blades, b)
	}
	if cfg.Pools > 0 {
		p.initFleet()
	}
	return p
}

// run plays the event loop over the arrival stream until every admitted
// request has completed or been shed.
//
// Event priority at equal timestamps: completions, then lifecycle
// faults, then autoscale ticks, then re-admissions of evicted requests,
// then fresh arrivals. The run ends when no completion, re-route, or
// arrival remains; lifecycle faults and autoscale ticks scheduled past
// that point never fire (armed-but-unfired), which is what makes an
// unfired blade plan byte-identical to no plan.
func (p *pool) run(reqs []Request) {
	ai := 0
	for {
		if stepHook != nil {
			stepHook(p)
		}
		nextArr := sim.Never
		if ai < len(reqs) {
			nextArr = reqs[ai].Arrival
		}
		var db *blade
		doneT := sim.Never
		if len(p.inflight) > 0 {
			db = p.inflight[0]
			doneT = db.done
		}
		nextRer := sim.Never
		if len(p.reroutes) > 0 {
			nextRer = p.reroutes[0].at
		}
		if doneT == sim.Never && nextRer == sim.Never && nextArr == sim.Never {
			return
		}
		nextFault := sim.Never
		if p.fi < len(p.faultSched) {
			nextFault = p.faultSched[p.fi].at
		}
		nextTick := p.nextTick()
		switch {
		case doneT <= nextFault && doneT <= nextTick && doneT <= nextRer && doneT <= nextArr:
			p.now = doneT
			p.complete(db)
		case nextFault <= nextTick && nextFault <= nextRer && nextFault <= nextArr:
			p.now = nextFault
			p.applyFault(p.faultSched[p.fi])
			p.fi++
		case nextTick <= nextRer && nextTick <= nextArr:
			p.now = nextTick
			p.autoscaleTick()
		case nextRer <= nextArr:
			p.now = nextRer
			p.admit(p.popReroute())
		default:
			p.now = nextArr
			p.admit(reqs[ai])
			ai++
		}
	}
}

// completionHeap is a min-heap of the busy blades keyed by (done, id):
// the top is the next completion, lowest blade index on ties. Each
// blade tracks its own position (hidx), so a kill removes it and a
// stall that moves done re-sifts it in O(log blades).
type completionHeap []*blade

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(a, b int) bool {
	if h[a].done != h[b].done {
		return h[a].done < h[b].done
	}
	return h[a].id < h[b].id
}
func (h completionHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].hidx = a
	h[b].hidx = b
}
func (h *completionHeap) Push(x interface{}) {
	b := x.(*blade)
	b.hidx = len(*h)
	*h = append(*h, b)
}
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	b := old[n]
	old[n] = nil
	b.hidx = -1
	*h = old[:n]
	return b
}

// startBusy marks b in flight over [start, done) and enters it in the
// completion heap.
func (p *pool) startBusy(b *blade, start, done sim.Time) {
	b.busy = true
	b.start = start
	b.done = done
	heap.Push(&p.inflight, b)
}

// stopBusy marks b idle and takes it out of the completion heap.
func (p *pool) stopBusy(b *blade) {
	b.busy = false
	heap.Remove(&p.inflight, b.hidx)
}

// estOne is the estimator's per-request service estimate (a lone
// dispatch), used to score queue backlogs and deadline feasibility. When
// the Eq. 3 estimate is inconclusive it falls back to the measured
// single-request service, which the calibration table always has. It
// depends only on the geometry, so it is a table read (derive).
func (p *pool) estOne(r Request) sim.Duration { return p.cal.est1[geomIdx(r.Tall)] }

// bladeScore is the estimator's finish frontier for one blade: the
// remaining in-flight work plus queuedWork. The per-pool placement order
// ranks by it, and the fleet router's stored pool frontiers (fleet.go)
// are its minimum over a pool.
func (p *pool) bladeScore(b *blade) sim.Duration {
	s := p.queuedWork(b)
	if b.busy {
		s += b.done.Sub(p.now)
	}
	return s
}

// queuedWork is the time-invariant part of bladeScore: the estimated
// backlog of the queue (the incrementally kept b.backlog) plus warmup
// for a cold or restarted blade.
func (p *pool) queuedWork(b *blade) sim.Duration {
	s := b.backlog
	if !b.warm {
		s += p.cal.coldWarmup
	}
	return s
}

// placeOrder ranks the whole pool's admittable blades (the classic
// single-pool path; the fleet router ranks within the routed pool via
// placeOrderIn).
func (p *pool) placeOrder(r Request) []*blade {
	return p.placeOrderIn(r, p.blades, &p.rr)
}

// placeOrderIn ranks the admittable blades of one candidate set for
// admitting r — lifecycle health is the circuit breaker: draining,
// stalled, parked, and dead blades never appear in the order. The
// estimator policy orders by earliest estimated finish (bladeScore); the
// round-robin policy — and the estimator when its scores cannot separate
// the blades — uses plain rotation over rr, which belongs to the
// candidate set (the pool shard in fleet mode). With every blade healthy
// the order is exactly the pre-lifecycle one. The returned slice is pool
// scratch, valid until the next call; it is empty when no blade is
// admittable.
func (p *pool) placeOrderIn(r Request, blades []*blade, rr *int) []*blade {
	n := len(blades)
	rot := func() []*blade {
		out := p.ordBuf[:0]
		for i := 0; i < n; i++ {
			if b := blades[(*rr+i)%n]; b.health.admittable() {
				out = append(out, b)
			}
		}
		*rr = (*rr + 1) % n
		return out
	}
	if p.cfg.Policy == PolicyRoundRobin || !p.cal.conclusive {
		return rot()
	}
	scores := p.scoreBuf[:n]
	idx := p.idxBuf[:0]
	for i, b := range blades {
		if !b.health.admittable() {
			continue
		}
		scores[i] = p.bladeScore(b)
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return p.ordBuf[:0]
	}
	min, max := scores[idx[0]], scores[idx[0]]
	for _, i := range idx[1:] {
		if scores[i] < min {
			min = scores[i]
		}
		if scores[i] > max {
			max = scores[i]
		}
	}
	if min == max {
		// All admittable blades look identical to the estimator:
		// inconclusive, so rotate to avoid piling onto the lowest index.
		p.placeFallbacks++
		return rot()
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
	out := p.ordBuf[:len(idx)]
	for i, j := range idx {
		out[i] = blades[j]
	}
	return out
}

// admitInto places r on the first blade of order with queue room,
// dispatching immediately if that blade is idle, and reports whether
// the request was admitted.
func (p *pool) admitInto(r Request, order []*blade) bool {
	for _, b := range order {
		if len(b.queue) < p.cfg.MaxQueue {
			b.queue = append(b.queue, r)
			b.backlog += p.estOne(r)
			if !b.busy {
				p.dispatch(b, p.now)
			}
			p.refreshFrontier(b)
			return true
		}
	}
	return false
}

// admit places one request (a fresh arrival or a re-routed eviction) on
// the first blade in policy preference order with queue room,
// dispatching immediately if that blade is idle. Requests finding every
// candidate queue full — or no admittable blade at all — are shed
// (backpressure). In fleet mode the router first picks the pool
// (consistent hashing with estimator override), and exhausted candidacy
// is global backpressure (shed_global).
func (p *pool) admit(r Request) {
	if p.fleet != nil {
		p.admitFleet(r)
		return
	}
	order := p.placeOrder(r)
	if p.admitInto(r, order) {
		return
	}
	p.shedRejected++
	if len(order) > 0 {
		p.recordShedRejected(order[0], r)
	} else if p.ctr != nil {
		p.ctr.Instant(coordLane, p.now, fmt.Sprintf("shed-rejected req %d (no admittable blade)", r.ID))
	}
}

// recordShedRejected marks a backpressure shed on the first-choice
// blade's trace lane.
func (p *pool) recordShedRejected(first *blade, r Request) {
	if first.rec != nil {
		first.rec.Instant(first.lane, p.now, fmt.Sprintf("shed-rejected req %d", r.ID))
	}
}

// dispatch sheds queued requests that can no longer meet their deadline,
// coalesces the head-compatible requests into one batch, picks the
// scheduling scheme, and starts the dispatch on b at virtual time now.
func (p *pool) dispatch(b *blade, now sim.Time) {
	// A request that cannot finish by its deadline even if dispatched
	// alone right now is hopeless: shed it instead of wasting a blade.
	keep := b.queue[:0]
	for _, r := range b.queue {
		if est := p.estOne(r); r.Deadline != sim.Never && now.Add(est) > r.Deadline {
			b.shedExpired++
			b.backlog -= est
			if b.rec != nil {
				b.rec.Instant(b.lane, now, fmt.Sprintf("shed-expired req %d", r.ID))
			}
			continue
		}
		keep = append(keep, r)
	}
	b.queue = keep
	if len(b.queue) == 0 {
		return
	}

	// Coalesce: the head request plus every same-geometry request behind
	// it, in arrival order, up to the batch bound. The batch buffer is
	// the blade's recycled spare (capacity MaxBatch), so steady-state
	// dispatch allocates nothing.
	tall := b.queue[0].Tall
	batch := b.spare[:0]
	rest := b.queue[:0]
	for _, r := range b.queue {
		if r.Tall == tall && len(batch) < p.cfg.MaxBatch {
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	b.queue = rest
	g := geomIdx(tall)
	// Every batch member shares the head's geometry, hence its estimate.
	b.backlog -= sim.Duration(len(batch)) * p.cal.est1[g]

	scheme := SchemeJob
	if p.cfg.Policy == PolicyEstimator && p.cal.conclusive {
		if pick := p.cal.pick[g][len(batch)]; pick.ok {
			scheme = pick.scheme
		} else {
			b.schemeFallbacks++ // estimate can't separate the schemes: job-distribution default
		}
	}

	s := p.cal.svcs[scheme][g][len(batch)]
	start := now
	if !b.warm {
		// A restarted blade comes back cold, so warmup can recur;
		// warmupTime accumulates every charge.
		b.warm = true
		b.warmupTime += s.Warmup
		if b.rec != nil {
			b.rec.Span(b.lane, start, start.Add(s.Warmup), trace.KindIO, "warmup: model library load")
		}
		start = start.Add(s.Warmup)
	}
	p.startBusy(b, start, start.Add(s.Service))
	b.cur = batch
	b.deg = s.Degraded
	b.dispatches++
	b.batches++
	b.batchRequests += len(batch)
	b.schemeBatches[scheme]++
	if b.rec != nil {
		geom := ""
		if tall {
			geom = " tall"
		}
		b.rec.Span(b.lane, start, b.done, trace.KindCompute,
			fmt.Sprintf("batch#%d ×%d %s%s", b.dispatches, len(batch), scheme, geom))
	}

	if p.cfg.FullFidelity {
		p.verify = append(p.verify, verifyJob{blade: b.id, seq: b.dispatches, scheme: scheme, tall: tall, k: len(batch)})
	}
}

// verifyJob is one dispatch FullFidelity must re-simulate: the blade and
// its dispatch sequence number locate it, the (scheme, geometry, batch)
// point is what the loop charged from the calibration table.
type verifyJob struct {
	blade, seq int
	scheme     Scheme
	tall       bool
	k          int
}

// verifyDispatches re-runs the full machine simulation behind the
// recorded dispatches on up to cfg.Parallel workers and cross-checks each
// against the calibration table entry the event loop charged. A
// dispatch's machine run is a pure function of its (scheme, geometry,
// batch) point and the run's fixed machine-fault plan, so each distinct
// point runs once, standing for its lowest (blade, dispatch sequence)
// dispatch; any divergence means the table no longer describes the
// machine. The points run in that representative order and RunIndexed
// returns the lowest-index error, so the reported divergence — the
// lowest affected blade's first diverging dispatch — is the same at
// every worker count and the same as re-running every dispatch.
func (p *pool) verifyDispatches() error {
	jobs := p.verify
	slices.SortStableFunc(jobs, func(a, b verifyJob) int { return cmp.Compare(a.blade, b.blade) })
	type point struct {
		scheme Scheme
		tall   bool
		k      int
	}
	seen := map[point]bool{}
	var reps []verifyJob
	for _, j := range jobs {
		if k := (point{j.scheme, j.tall, j.k}); !seen[k] {
			seen[k] = true
			reps = append(reps, j)
		}
	}
	_, err := parallel.RunIndexed(p.cfg.Parallel, len(reps), func(i int) (struct{}, error) {
		j := reps[i]
		res, err := marvel.RunPorted(p.cfg.portedConfig(j.scheme.scenario(), j.tall, j.k, true))
		if err != nil {
			return struct{}{}, fmt.Errorf("serve: blade %d: full-fidelity dispatch #%d %s/tall=%v/k=%d: %w",
				j.blade, j.seq, j.scheme, j.tall, j.k, err)
		}
		got := svc{Service: res.Total - res.OneTime, Warmup: res.OneTime}
		if rep := res.Faults; rep != nil {
			got.Degraded = rep.Retries > 0 || rep.Redispatches > 0 || rep.Fallbacks > 0
			got.DegTime = rep.DegradedTime
		}
		if want := p.cal.service(j.scheme, j.tall, j.k); got != want {
			return struct{}{}, fmt.Errorf("serve: blade %d: full-fidelity dispatch #%d %s/tall=%v/k=%d diverged from calibration: got %+v want %+v",
				j.blade, j.seq, j.scheme, j.tall, j.k, got, want)
		}
		return struct{}{}, nil
	})
	return err
}

// complete retires b's in-flight batch at its completion instant b.done,
// accounts per-request latency and deadline outcomes on the blade, and
// immediately redispatches if work is queued.
func (p *pool) complete(b *blade) {
	t := b.done
	for _, r := range b.cur {
		b.served++
		b.latencies = append(b.latencies, t.Sub(r.Arrival))
		if r.Deadline != sim.Never && t > r.Deadline {
			b.late++
		}
		if b.deg {
			b.degraded++
		}
	}
	b.requests += len(b.cur)
	b.busyTime += t.Sub(b.start)
	if t > b.lastDone {
		b.lastDone = t
	}
	p.stopBusy(b)
	b.spare = b.cur[:0]
	b.cur = nil
	if b.health == healthWarming {
		// First completed dispatch after a restart: warmed and proven.
		b.health = healthUp
	}
	p.dispatch(b, t)
	// An autoscale-drained blade parks once its queue is served out.
	p.maybePark(b, t)
	p.refreshFrontier(b)
}
