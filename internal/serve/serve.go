// Package serve is the multi-blade serving layer: a pool of simulated
// Cell blades (each a private deterministic machine) serving a seeded,
// open-loop stream of MARVEL concept-detection requests. Admission is
// backpressured per blade, compatible requests are coalesced into one
// SPE dispatch, and the placement policy uses the paper's Eqs. 1-3
// estimator to pick both the blade and the scheduling scheme (job vs
// data distribution) per batch, falling back to round-robin when the
// estimate is inconclusive. Every run is a pure function of (Config,
// seed): virtual time only, no host clocks, so the same configuration
// always produces a byte-identical report.
package serve

import (
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/sim"
)

// Policy selects how arrivals are placed onto blades and how batches
// pick their scheduling scheme.
type Policy int

const (
	// PolicyEstimator places each request on the blade with the earliest
	// estimated finish and picks the batch's scheduling scheme by the
	// Eqs. 1-3 service estimate, falling back to round-robin rotation /
	// the job-distribution default when the estimate cannot separate the
	// candidates.
	PolicyEstimator Policy = iota
	// PolicyRoundRobin rotates placement over the blades and always
	// dispatches under job distribution — the estimator-free baseline.
	PolicyRoundRobin
)

func (p Policy) String() string {
	if p == PolicyRoundRobin {
		return "round-robin"
	}
	return "estimator"
}

// Config describes one serve run.
type Config struct {
	// Blades is the number of simulated Cell blades in the pool.
	Blades int
	// MaxQueue bounds each blade's admission queue; arrivals finding
	// every candidate queue full are shed (backpressure).
	MaxQueue int
	// MaxBatch bounds how many compatible requests one SPE dispatch may
	// coalesce.
	MaxBatch int
	// Requests is the length of the generated arrival stream.
	Requests int
	// Rate is the offered load as a multiple of the pool's estimated
	// capacity (Blades × per-blade full-batch throughput); values above
	// 1 drive the pool into overload.
	Rate float64
	// Burst is the mean arrival burst size (1 = plain Poisson arrivals).
	Burst float64
	// Pools, when positive, selects fleet mode (DESIGN.md §13): the run
	// owns Pools independent pools of Blades blades each, routed by
	// consistent hashing of request geometry with an estimator-aware
	// override, with global backpressure (shed_global) when every
	// candidate pool is full. Zero keeps the classic single-pool layout.
	Pools int
	// Autoscale, when non-nil in fleet mode, arms the deterministic
	// autoscaler: pools are activated and drained from virtual-time load
	// signals sampled on a fixed tick grid (autoscale.go).
	Autoscale *Autoscale
	// Load, when non-nil, shapes the arrival rate over virtual time
	// with a seeded diurnal sinusoid plus flash-crowd windows
	// (loadgen.go). Nil keeps the homogeneous stream.
	Load *RateModel
	// OfferedRPS, when positive, pins the absolute offered load in
	// requests per virtual second, overriding the Rate-derived value.
	// Pinning lets two configurations (e.g. a fleet and a single-pool
	// baseline) consume one byte-identical arrival stream.
	OfferedRPS float64
	// TallFrac is the fraction of requests carrying the double-height
	// frame geometry; only same-geometry requests coalesce.
	TallFrac float64
	// Deadline is each request's virtual completion budget after
	// arrival. Zero selects an automatic deadline (one blade warmup
	// plus 6× the best measured full-batch service time); negative
	// disables deadlines.
	Deadline sim.Duration
	// Seed drives the arrival stream.
	Seed uint64
	// Policy selects the placement/scheme policy.
	Policy Policy
	// Frame sets the base frame geometry and corpus seed (Images is
	// ignored; the zero value selects the paper's 352×240 workload).
	Frame marvel.Workload
	// Variant selects the kernel port variant used by every dispatch.
	Variant marvel.Variant
	// MachineConfig overrides the per-blade machine (nil selects the
	// default machine with blade-sized 64 MB memory).
	MachineConfig *cell.Config
	// Artifacts shares workload artifacts across calibration runs; nil
	// uses the process-wide shared cache.
	Artifacts *marvel.ArtifactCache
	// Faults, when non-nil, arms the deterministic fault plan. Its
	// machine-level faults run inside every dispatch simulation, so
	// measured services include the supervision loop's retries and
	// fallbacks (degraded service); its fleet-level faults (blade-crash,
	// blade-stall, blade-restart) drive the pool's blade lifecycle
	// (DESIGN.md §12).
	Faults *fault.Plan
	// Watchdog overrides the supervision watchdog (only with Faults).
	Watchdog sim.Duration
	// RetryBudget bounds how many times one request may be re-routed
	// after losing its blade before being shed as exhausted (default 3,
	// mirroring the supervision loop's retry bound).
	RetryBudget int
	// RetryBackoff is the base virtual-time backoff a re-routed request
	// waits before re-entering admission; attempt k waits
	// RetryBackoff << (k-1), saturating at 16 doublings (default 100µs,
	// mirroring the supervision loop's backoff).
	RetryBackoff sim.Duration
	// Parallel bounds the worker pool used for calibration simulations
	// and for FullFidelity's per-dispatch verification simulations (zero
	// selects GOMAXPROCS). It never affects results, including which
	// divergence FullFidelity reports, only wall-clock time.
	Parallel int
	// Shards is ignored. It is kept only so existing callers that set it
	// still compile; Parallel bounds every worker pool.
	Shards int
	// FullFidelity re-runs the full machine simulation behind every
	// dispatch after the event loop and fails the run if any dispatch
	// diverges from the calibration table. This is the verified-dispatch
	// mode: much more expensive, byte-identical report.
	FullFidelity bool
	// Instrument attaches a per-blade trace recorder and metrics
	// registry to the report (excluded from JSON, so artifacts stay
	// byte-identical with instrumentation on or off).
	Instrument bool
	// Cal, when non-nil, reuses a previously measured calibration (for
	// policy comparisons over the identical service table). It must have
	// been measured at a MaxBatch at least this config's and, when
	// TallFrac > 0, with the tall geometry (Validate checks both).
	Cal *Calibration
}

func (c Config) withDefaults() Config {
	if c.Blades <= 0 {
		c.Blades = 3
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Rate <= 0 {
		c.Rate = 2
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.Frame.W <= 0 || c.Frame.H <= 0 {
		def := marvel.DefaultWorkload(1)
		c.Frame.W, c.Frame.H = def.W, def.H
		if c.Frame.Seed == 0 {
			c.Frame.Seed = def.Seed
		}
	}
	if c.MachineConfig == nil {
		mc := cell.DefaultConfig()
		mc.MemorySize = 64 << 20 // one blade's local share, not the default desktop 256 MB
		c.MachineConfig = &mc
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * sim.Microsecond
	}
	return c
}

// workload is the k-image workload for one dispatch at a geometry.
func (c Config) workload(tall bool, k int) marvel.Workload {
	h := c.Frame.H
	if tall {
		h *= 2
	}
	return marvel.Workload{Images: k, W: c.Frame.W, H: h, Seed: c.Frame.Seed}
}

// portedConfig assembles the simulation config for one dispatch
// measurement. Fault plans are armed only on the dispatch points, not on
// the estimator's clean single-SPE calibration run.
func (c Config) portedConfig(scen marvel.Scenario, tall bool, k int, withFaults bool) marvel.PortedConfig {
	pc := marvel.PortedConfig{
		Workload:      c.workload(tall, k),
		Scenario:      scen,
		Variant:       c.Variant,
		MachineConfig: c.MachineConfig,
		Artifacts:     c.Artifacts,
		Watchdog:      c.Watchdog,
	}
	if withFaults {
		// Only the machine-level subset reaches the dispatch simulation;
		// fleet-level faults belong to the pool's lifecycle layer. The
		// subset is nil for a purely fleet-level plan, so such a plan
		// leaves every machine run on its exact fault-free paths.
		pc.Faults = c.Faults.MachineFaults()
	}
	return pc
}

// RacePointConfig exposes one calibration point's simulation config
// with the config's defaults applied: exactly the PortedConfig the
// (scheme, geometry, batch) service point of Calibrate measures. The
// estimator-race harness re-runs these points with an execution backend
// attached, so the simulated half of a race is the same run — byte for
// byte — that produced the calibration table.
func (c Config) RacePointConfig(s Scheme, tall bool, k int) marvel.PortedConfig {
	return c.withDefaults().portedConfig(s.scenario(), tall, k, true)
}

// Run executes one serve run: validate and default the config,
// calibrate (or reuse cfg.Cal), generate the seeded arrival stream, and
// play the admission/dispatch event loop to completion.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cal := cfg.Cal
	if cal == nil {
		var err error
		if cal, err = Calibrate(cfg); err != nil {
			return nil, err
		}
	}
	if cal.perBlade <= 0 {
		return nil, fmt.Errorf("serve: calibration produced a non-positive per-blade capacity")
	}

	totalBlades := cfg.Blades
	if cfg.Pools > 0 {
		totalBlades = cfg.Blades * cfg.Pools
	}
	offered := cfg.OfferedRPS
	if offered <= 0 {
		offered = cfg.Rate * cal.perBlade * float64(totalBlades)
	}
	deadline := cfg.Deadline
	if deadline == 0 {
		best := cal.service(SchemeJob, false, cfg.MaxBatch)
		if d := cal.service(SchemeData, false, cfg.MaxBatch); d.Service < best.Service {
			best = d
		}
		// Early requests land on cold blades and pay the one-time
		// warmup before any service; without this term the automatic
		// deadline is unreachable on workloads whose warmup dominates
		// the per-batch service time.
		deadline = best.Warmup + 6*best.Service
	} else if deadline < 0 {
		deadline = 0
	}

	reqs := arrivalsShaped(cfg.Seed, cfg.Requests, offered, cfg.Burst, cfg.TallFrac, deadline, cfg.Load)
	p := newPool(cfg, cal, deadline)
	if err := p.armFleet(cfg.Faults); err != nil {
		return nil, err
	}
	// The expected arrival span is the autoscaler's natural time unit
	// for its default sample grid.
	p.armAutoscale(clampGap(float64(cfg.Requests) / offered))
	p.run(reqs)
	if err := p.verifyDispatches(); err != nil {
		return nil, err
	}
	return p.report(offered), nil
}
