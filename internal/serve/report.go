package serve

import (
	"math"
	"slices"

	"cellport/internal/metrics"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// BladeStats is one blade's share of the run. Trace and Metrics are
// populated only when Config.Instrument is set and are excluded from
// JSON so serialized reports are byte-identical either way.
type BladeStats struct {
	Blade      int          `json:"blade"`
	Health     string       `json:"health"`
	Dispatches int          `json:"dispatches"`
	Requests   int          `json:"requests"`
	Busy       sim.Duration `json:"busy_fs"`
	Warmup     sim.Duration `json:"warmup_fs"`

	// Lifecycle outcomes (DESIGN.md §12). Sheds are attributed to the
	// blade that lost the request, so these merge like every other
	// ledger column.
	Crashes       int `json:"crashes"`
	Restarts      int `json:"restarts"`
	Stalls        int `json:"stalls"`
	Rerouted      int `json:"rerouted"`
	ShedRerouted  int `json:"shed_rerouted"`
	ShedExhausted int `json:"shed_exhausted"`

	Trace   *trace.Recorder   `json:"-"`
	Metrics *metrics.Snapshot `json:"-"`
}

// Report is the outcome of one serve run: a pure function of (Config,
// seed). All durations are virtual femtoseconds; throughputs are
// requests per virtual second.
type Report struct {
	Policy   string `json:"policy"`
	Blades   int    `json:"blades"`
	Requests int    `json:"requests"`

	PerBladeCapacityRPS float64      `json:"per_blade_capacity_rps"`
	OfferedRPS          float64      `json:"offered_rps"`
	AchievedRPS         float64      `json:"achieved_rps"`
	RateMultiple        float64      `json:"rate_multiple"`
	Deadline            sim.Duration `json:"deadline_fs"`

	Served       int `json:"served"`
	Late         int `json:"late"`
	Degraded     int `json:"degraded"`
	ShedRejected int `json:"shed_rejected"`
	ShedExpired  int `json:"shed_expired"`
	// Lifecycle shed reasons: a re-routed request whose backoff overshot
	// its deadline, and one that exhausted its retry budget. ShedGlobal
	// is the fleet router's global backpressure: no active pool had any
	// admittable blade with queue room (always 0 outside fleet mode).
	// The six-term ledger conserves exactly:
	// Served + ShedRejected + ShedExpired + ShedRerouted + ShedExhausted
	// + ShedGlobal == Requests.
	ShedRerouted  int `json:"shed_rerouted"`
	ShedExhausted int `json:"shed_exhausted"`
	ShedGlobal    int `json:"shed_global"`

	// Fleet lifecycle outcomes: re-route events and the lifecycle
	// transitions that actually fired (armed-but-unfired plan entries
	// count nothing).
	Rerouted      int `json:"rerouted"`
	BladeCrashes  int `json:"blade_crashes"`
	BladeRestarts int `json:"blade_restarts"`
	BladeStalls   int `json:"blade_stalls"`

	Batches             int            `json:"batches"`
	MeanBatch           float64        `json:"mean_batch"`
	SchemeBatches       map[string]int `json:"scheme_batches"`
	PolicyFallbacks     int            `json:"policy_fallbacks"`
	EstimatorConclusive bool           `json:"estimator_conclusive"`

	Makespan   sim.Duration `json:"makespan_fs"`
	LatencyP50 sim.Duration `json:"latency_p50_fs"`
	LatencyP95 sim.Duration `json:"latency_p95_fs"`
	LatencyP99 sim.Duration `json:"latency_p99_fs"`

	PerBlade []BladeStats `json:"per_blade"`

	// Fleet is the routing/autoscaling layer's outcome, present only in
	// fleet mode (Config.Pools > 0).
	Fleet *FleetStats `json:"fleet,omitempty"`

	// Epochs, Barriers and WindowAdmits are always 0: the serve loop is
	// one sequential event loop with no epoch barriers. They remain
	// (excluded from JSON) only because the benchmark harness still
	// reads them.
	Epochs       uint64 `json:"-"`
	Barriers     uint64 `json:"-"`
	WindowAdmits int    `json:"-"`

	// Coordinator is the pool-wide trace lane (autoscale actions, sheds
	// with no blade to blame); only with Config.Instrument, excluded
	// from JSON.
	Coordinator *trace.Recorder `json:"-"`
}

// PoolStats is one fleet pool's share of the run.
type PoolStats struct {
	Pool   int  `json:"pool"`
	Blades int  `json:"blades"`
	Active bool `json:"active"`
	Routed int  `json:"routed"`
	Served int  `json:"served"`
}

// FleetStats is the fleet router and autoscaler outcome (fleet mode
// only). ActiveMin is the fewest simultaneously active pools the
// autoscaler reached — the off-peak drain depth.
type FleetStats struct {
	Pools           int         `json:"pools"`
	ActiveFinal     int         `json:"active_final"`
	ActiveMin       int         `json:"active_min"`
	ScaleUps        int         `json:"scale_ups"`
	ScaleDowns      int         `json:"scale_downs"`
	RouterOverrides int         `json:"router_overrides"`
	PerPool         []PoolStats `json:"per_pool"`
}

// percentile returns the q-quantile (0 < q <= 1) of an ascending-sorted
// sample by the nearest-rank method; 0 for an empty sample.
func percentile(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// report assembles the run outcome by merging the blade-local ledgers in
// blade-index order. Every merged quantity is either a sum, a max, or an
// order-insensitive percentile over the union of per-blade samples.
func (p *pool) report(offered float64) *Report {
	var served, late, degraded, shedExpired, batches, batchRequests, fallbacks int
	var shedRerouted, shedExhausted, rerouted, crashes, restarts, stalls int
	var schemeBatches [numSchemes]int
	var lastDone sim.Time
	var latencies []sim.Duration
	for _, b := range p.blades {
		served += b.served
		late += b.late
		degraded += b.degraded
		shedExpired += b.shedExpired
		shedRerouted += b.shedRerouted
		shedExhausted += b.shedExhausted
		rerouted += b.rerouted
		crashes += b.crashes
		restarts += b.restarts
		stalls += b.stalls
		batches += b.batches
		batchRequests += b.batchRequests
		fallbacks += b.schemeFallbacks
		for s := range schemeBatches {
			schemeBatches[s] += b.schemeBatches[s]
		}
		latencies = append(latencies, b.latencies...)
		if b.lastDone > lastDone {
			lastDone = b.lastDone
		}
	}
	// latencies is the report's own merged copy: sort it once for all
	// three percentiles.
	slices.Sort(latencies)
	// Only schemes that actually dispatched appear, matching the
	// increment-on-use map the loop historically built.
	schemes := map[string]int{}
	for s := Scheme(0); s < numSchemes; s++ {
		if n := schemeBatches[s]; n > 0 {
			schemes[s.String()] = n
		}
	}
	rateMultiple := p.cfg.Rate
	if p.cfg.OfferedRPS > 0 && p.cal.perBlade > 0 {
		// The pinned absolute rate defines the multiple, not the config
		// knob it overrode.
		rateMultiple = offered / (p.cal.perBlade * float64(len(p.blades)))
	}
	r := &Report{
		Policy:              p.cfg.Policy.String(),
		Blades:              len(p.blades),
		Requests:            p.cfg.Requests,
		PerBladeCapacityRPS: p.cal.perBlade,
		OfferedRPS:          offered,
		RateMultiple:        rateMultiple,
		Deadline:            p.deadline,
		Served:              served,
		Late:                late,
		Degraded:            degraded,
		ShedRejected:        p.shedRejected,
		ShedExpired:         shedExpired,
		ShedRerouted:        shedRerouted,
		ShedExhausted:       shedExhausted,
		Rerouted:            rerouted,
		BladeCrashes:        crashes,
		BladeRestarts:       restarts,
		BladeStalls:         stalls,
		Batches:             batches,
		SchemeBatches:       schemes,
		PolicyFallbacks:     p.placeFallbacks + fallbacks,
		EstimatorConclusive: p.cal.Conclusive(),
		Makespan:            lastDone.Sub(0),
		LatencyP50:          percentile(latencies, 0.50),
		LatencyP95:          percentile(latencies, 0.95),
		LatencyP99:          percentile(latencies, 0.99),
	}
	if batches > 0 {
		r.MeanBatch = float64(batchRequests) / float64(batches)
	}
	if f := p.fleet; f != nil {
		r.ShedGlobal = f.shedGlobal
		fs := &FleetStats{
			Pools:           len(f.pools),
			ActiveFinal:     f.activeCount(),
			ActiveMin:       f.activeMin,
			ScaleUps:        f.scaleUps,
			ScaleDowns:      f.scaleDowns,
			RouterOverrides: f.overrides,
		}
		for _, pl := range f.pools {
			ps := PoolStats{Pool: pl.id, Blades: len(pl.blades), Active: pl.active, Routed: pl.routed}
			for _, b := range pl.blades {
				ps.Served += b.served
			}
			fs.PerPool = append(fs.PerPool, ps)
		}
		r.Fleet = fs
	}
	if served > 0 && lastDone > 0 {
		r.AchievedRPS = float64(served) / lastDone.Seconds()
	}
	r.Coordinator = p.ctr
	for _, b := range p.blades {
		bs := BladeStats{
			Blade:         b.id,
			Health:        b.health.String(),
			Dispatches:    b.dispatches,
			Requests:      b.requests,
			Busy:          b.busyTime,
			Warmup:        b.warmupTime,
			Crashes:       b.crashes,
			Restarts:      b.restarts,
			Stalls:        b.stalls,
			Rerouted:      b.rerouted,
			ShedRerouted:  b.shedRerouted,
			ShedExhausted: b.shedExhausted,
			Trace:         b.rec,
		}
		if p.cfg.Instrument {
			reg := metrics.NewRegistry()
			reg.Counter(b.lane, "dispatches").Add(int64(b.dispatches))
			reg.Counter(b.lane, "requests").Add(int64(b.requests))
			reg.Counter(b.lane, "busy_fs").Add(int64(b.busyTime))
			reg.Counter(b.lane, "warmup_fs").Add(int64(b.warmupTime))
			reg.Counter(b.lane, "crashes").Add(int64(b.crashes))
			reg.Counter(b.lane, "restarts").Add(int64(b.restarts))
			reg.Counter(b.lane, "stalls").Add(int64(b.stalls))
			reg.Counter(b.lane, "rerouted").Add(int64(b.rerouted))
			reg.Counter(b.lane, "shed_rerouted").Add(int64(b.shedRerouted))
			reg.Counter(b.lane, "shed_exhausted").Add(int64(b.shedExhausted))
			bs.Metrics = reg.Snapshot()
		}
		r.PerBlade = append(r.PerBlade, bs)
	}
	return r
}
