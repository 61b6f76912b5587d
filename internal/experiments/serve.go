package experiments

import (
	"fmt"
	"io"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// ServeConfig sizes the serving-layer experiment (paperbench -exp serve).
// Zero values select the defaults noted on each field.
type ServeConfig struct {
	// Blades is the blade-pool size (default 3).
	Blades int
	// Rate is the offered load as a multiple of the pool's estimated
	// capacity (default 2: overload).
	Rate float64
	// Burst is the mean arrival burst size (default 2).
	Burst float64
	// DeadlineMS is the per-request virtual deadline in milliseconds:
	// 0 selects the automatic deadline, negative disables deadlines.
	DeadlineMS float64
	// Seed drives the arrival stream (default 7).
	Seed uint64
}

// ServeResult compares the two admission policies over one shared
// calibration and the identical arrival stream.
type ServeResult struct {
	Estimator  *serve.Report `json:"estimator"`
	RoundRobin *serve.Report `json:"round_robin"`
}

// serveBase assembles the serve.Config for this experiment configuration
// (shared with the benchmark harness and tests so every entry point
// serves the same stream).
func (c Config) serveBase() (serve.Config, error) {
	sc := c.Serve
	if sc.Blades <= 0 {
		sc.Blades = 3
	}
	if sc.Rate <= 0 {
		sc.Rate = 2
	}
	if sc.Burst <= 0 {
		sc.Burst = 2
	}
	if sc.Seed == 0 {
		sc.Seed = 7
	}
	frame := c.Workload(1)
	base := serve.Config{
		Blades:        sc.Blades,
		Rate:          sc.Rate,
		Burst:         sc.Burst,
		TallFrac:      0.25,
		Seed:          sc.Seed,
		Frame:         frame,
		Variant:       marvel.Optimized,
		MachineConfig: MachineConfig(),
		Watchdog:      c.Watchdog,
		Parallel:      c.Parallel,
		FullFidelity:  c.FullSim,
		Instrument:    c.Collect != nil,
	}
	if c.Quick {
		base.Requests, base.MaxBatch, base.MaxQueue = 64, 3, 6
	} else {
		base.Requests, base.MaxBatch, base.MaxQueue = 256, 4, 8
	}
	switch {
	case sc.DeadlineMS > 0:
		base.Deadline = sim.FromSeconds(sc.DeadlineMS / 1000)
	case sc.DeadlineMS < 0:
		base.Deadline = -1
	}
	// The serving layer threads its cache straight into every calibration
	// simulation.
	base.Artifacts = c.artifacts()
	if c.FaultSpec != "" {
		plan, err := fault.Parse(c.FaultSpec)
		if err != nil {
			return serve.Config{}, err
		}
		base.Faults = plan
	} else if c.FaultSeed != 0 {
		base.Faults = fault.Seeded(c.FaultSeed, base.MachineConfig.NumSPEs)
	}
	return base, nil
}

// ServeExp runs the multi-blade serving experiment: one calibration, then
// the identical seeded request stream served under the estimator-driven
// policy and under plain round-robin. With a collector armed, every
// blade's trace and metrics land under serve/<policy>/bladeN (one Chrome
// trace process per blade).
func ServeExp(cfg Config) (*ServeResult, error) {
	base, err := cfg.serveBase()
	if err != nil {
		return nil, err
	}
	if base.Cal, err = serve.Calibrate(base); err != nil {
		return nil, err
	}

	res := &ServeResult{}
	for _, p := range []struct {
		policy serve.Policy
		out    **serve.Report
	}{{serve.PolicyEstimator, &res.Estimator}, {serve.PolicyRoundRobin, &res.RoundRobin}} {
		c := base
		c.Policy = p.policy
		rep, err := serve.Run(c)
		if err != nil {
			return nil, err
		}
		*p.out = rep
		for _, bs := range rep.PerBlade {
			cfg.Collect.AddArtifacts(fmt.Sprintf("serve/%s/blade%d", rep.Policy, bs.Blade), bs.Trace, bs.Metrics)
		}
		cfg.Collect.AddArtifacts(fmt.Sprintf("serve/%s/coordinator", rep.Policy), rep.Coordinator, nil)
	}
	return res, nil
}

// RenderServe prints the policy comparison.
func RenderServe(w io.Writer, r *ServeResult) {
	e := r.Estimator
	fmt.Fprintf(w, "Serving layer — %d blades, offered %.1f rps (%.1f× capacity), deadline %s\n",
		e.Blades, e.OfferedRPS, e.RateMultiple, e.Deadline)
	fmt.Fprintf(w, "%-14s %9s %7s %5s %9s %9s %7s %9s %9s %9s\n",
		"policy", "achieved", "served", "late", "shed-rej", "shed-exp", "batch", "p50", "p95", "p99")
	for _, rep := range []*serve.Report{r.Estimator, r.RoundRobin} {
		fmt.Fprintf(w, "%-14s %9.1f %7d %5d %9d %9d %7.2f %9s %9s %9s\n",
			rep.Policy, rep.AchievedRPS, rep.Served, rep.Late, rep.ShedRejected, rep.ShedExpired,
			rep.MeanBatch, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
	}
	fmt.Fprintf(w, "estimator schemes: %v (fallbacks %d, conclusive %v)\n",
		e.SchemeBatches, e.PolicyFallbacks, e.EstimatorConclusive)
	good := func(rep *serve.Report) int { return rep.Served - rep.Late }
	fmt.Fprintf(w, "goodput (served on time): estimator %d vs round-robin %d\n", good(r.Estimator), good(r.RoundRobin))
}
