package serve

import (
	"bytes"
	"fmt"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// runSpan estimates the arrival stream's busy window for cfg under the
// shared calibration: the virtual time the offered load needs to deliver
// all requests. Chaos schedules place their triggers inside it.
func runSpan(t *testing.T, cfg Config) sim.Duration {
	t.Helper()
	cal := mustCal(t)
	offered := cfg.Rate * cal.perBlade * float64(cfg.Blades)
	return sim.FromSeconds(float64(cfg.Requests) / offered)
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaosConfig is quickConfig scaled to the acceptance scenario: 8 blades
// under the shared calibration (calibration is per-machine, so blade
// count does not change the table).
func chaosConfig(t *testing.T) Config {
	t.Helper()
	cfg := quickConfig()
	cfg.Blades = 8
	cfg.Requests = 96
	cfg.Cal = mustCal(t)
	return cfg
}

// TestChaosConservation: under seeded rolling-restart schedules the
// ledger still conserves exactly — every request is served or shed with
// an attributed reason — and the lifecycle counters record what fired.
func TestChaosConservation(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := chaosConfig(t)
	span := runSpan(t, cfg)
	for _, seed := range []uint64{1, 7, 42} {
		cfg.Faults = fault.SeededFleet(seed, cfg.Blades, span)
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.BladeCrashes == 0 {
			t.Fatalf("seed %d: seeded fleet schedule fired no crash", seed)
		}
		if rep.Rerouted == 0 {
			t.Fatalf("seed %d: chaos run re-routed nothing", seed)
		}
		var perBladeSheds, perBladeReroutes int
		for _, bs := range rep.PerBlade {
			perBladeSheds += bs.ShedRerouted + bs.ShedExhausted
			perBladeReroutes += bs.Rerouted
		}
		if perBladeSheds != rep.ShedRerouted+rep.ShedExhausted {
			t.Fatalf("seed %d: per-blade shed attribution %d != totals %d",
				seed, perBladeSheds, rep.ShedRerouted+rep.ShedExhausted)
		}
		if perBladeReroutes != rep.Rerouted {
			t.Fatalf("seed %d: per-blade reroutes %d != total %d", seed, perBladeReroutes, rep.Rerouted)
		}
	}
}

// TestChaosDeterminismMatrix: a seeded blade-fault schedule conserves
// the ledger and serializes byte-identically when repeated.
func TestChaosDeterminismMatrix(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := chaosConfig(t)
	cfg.Faults = fault.SeededFleet(7, cfg.Blades, runSpan(t, cfg))

	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	golden := marshal(t, rep)
	if got := marshal(t, mustRun(t, cfg)); !bytes.Equal(got, golden) {
		t.Fatalf("repeated chaos run diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestArmedButUnfiredFleetPlan extends the PR-3 invariant to fleet
// scope: a blade plan whose triggers all land past the end of the run
// must leave the report byte-identical to running with no plan at all.
func TestArmedButUnfiredFleetPlan(t *testing.T) {
	cfg := chaosConfig(t)
	golden := marshal(t, mustRun(t, cfg))

	far := 1000 * runSpan(t, cfg)
	armed := cfg
	armed.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.BladeCrash, Blade: 0, At: sim.Time(far)},
		{Kind: fault.BladeRestart, Blade: 1, At: sim.Time(far), Drain: sim.Millisecond},
		{Kind: fault.BladeStall, Blade: 2, At: sim.Time(far), Delay: sim.Millisecond},
	}}
	if got := marshal(t, mustRun(t, armed)); !bytes.Equal(got, golden) {
		t.Fatalf("armed-but-unfired blade plan changed the report:\n got %s\nwant %s", got, golden)
	}
}

// TestBladeCrashGoodputBound is the acceptance scenario: killing 1 of 8
// blades mid-run completes or attributably sheds every request, and
// degrades goodput (on-time served) by no more than the lost capacity
// fraction plus a bounded reroute overhead.
func TestBladeCrashGoodputBound(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := chaosConfig(t)
	base := mustRun(t, cfg)
	checkLedger(t, base)

	span := runSpan(t, cfg)
	crashAt := sim.Time(span * 2 / 5)
	chaos := cfg
	chaos.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.BladeCrash, Blade: 3, At: crashAt},
	}}
	rep := mustRun(t, chaos)
	checkLedger(t, rep)

	if rep.BladeCrashes != 1 {
		t.Fatalf("crashes fired %d, want 1", rep.BladeCrashes)
	}
	if rep.PerBlade[3].Health != "down" {
		t.Fatalf("blade 3 health %q after crash, want down", rep.PerBlade[3].Health)
	}
	goodBase := base.Served - base.Late
	goodChaos := rep.Served - rep.Late
	if goodBase <= 0 {
		t.Fatalf("degenerate baseline: goodput %d", goodBase)
	}
	// Losing one of eight blades for the tail of the run can cost at
	// most one blade-share of the baseline goodput, plus the requests
	// that were in transit on the dead blade (each re-route or in-flight
	// batch slot can turn one on-time completion into a late or shed
	// one).
	lost := goodBase - goodChaos
	bound := goodBase/cfg.Blades + rep.Rerouted + cfg.MaxBatch
	if lost > bound {
		t.Fatalf("goodput degraded by %d (baseline %d, chaos %d), bound %d",
			lost, goodBase, goodChaos, bound)
	}
}

// TestBladeRestartRecharge: a rolling restart drains the blade, evicts
// what remains, and re-charges warmup — the blade pays the model-library
// load twice and ends the run healthy.
func TestBladeRestartRecharge(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := quickConfig()
	cfg.Cal = mustCal(t)
	span := runSpan(t, cfg)
	cfg.Faults = mustPlan(t, fmt.Sprintf("blade-restart:blade=1,at=%dfs,drain=%dfs",
		span*3/10, span/20))
	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	if rep.BladeRestarts != 1 {
		t.Fatalf("restarts fired %d, want 1", rep.BladeRestarts)
	}
	w := mustCal(t).service(SchemeJob, false, 1).Warmup
	bs := rep.PerBlade[1]
	if bs.Restarts != 1 {
		t.Fatalf("blade 1 restarts %d, want 1", bs.Restarts)
	}
	if bs.Warmup != 2*w {
		t.Fatalf("blade 1 warmup %v after restart, want re-charged 2×%v", bs.Warmup, w)
	}
	if h := bs.Health; h != "up" && h != "warming" {
		t.Fatalf("blade 1 health %q after restart, want up/warming", h)
	}
}

// TestBladeStallDelaysInFlight: a stall freezes admissions and pushes
// the in-flight completion by the stall length; the blade recovers to
// its pre-stall state.
func TestBladeStallDelaysInFlight(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := quickConfig()
	cfg.Cal = mustCal(t)
	span := runSpan(t, cfg)
	cfg.Faults = mustPlan(t, fmt.Sprintf("blade-stall:blade=0,at=%dfs,delay=%dfs",
		span*3/10, span/10))
	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	if rep.BladeStalls != 1 {
		t.Fatalf("stalls fired %d, want 1", rep.BladeStalls)
	}
	if rep.PerBlade[0].Stalls != 1 {
		t.Fatalf("blade 0 stalls %d, want 1", rep.PerBlade[0].Stalls)
	}
	if h := rep.PerBlade[0].Health; h != "up" {
		t.Fatalf("blade 0 health %q after stall window, want up", h)
	}
	// The stall must cost something somewhere: either makespan moved or
	// the ledger shifted relative to the fault-free run.
	free := cfg
	free.Faults = nil
	baseline := mustRun(t, free)
	if bytes.Equal(marshal(t, rep), marshal(t, baseline)) {
		t.Fatal("stall run byte-identical to fault-free run: stall had no effect")
	}
}

// TestRerouteBackoffMirrorsSupervision pins the backoff law to the
// supervision loop's: base << (attempt-1), saturating at 16 doublings.
func TestRerouteBackoffMirrorsSupervision(t *testing.T) {
	base := 100 * sim.Microsecond
	cases := []struct {
		attempt int
		want    sim.Duration
	}{
		{1, base}, {2, 2 * base}, {3, 4 * base}, {4, 8 * base},
		{17, base << 16}, {40, base << 16}, {0, base},
	}
	for _, c := range cases {
		if got := rerouteBackoff(base, c.attempt); got != c.want {
			t.Errorf("rerouteBackoff(attempt=%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

// TestRetryBudgetExhaustion: with every blade crashing there is nowhere
// left to run; every outstanding request must drain through the re-route
// machinery into an attributed shed, and the run must terminate.
func TestRetryBudgetExhaustion(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := quickConfig()
	cfg.Cal = mustCal(t)
	span := runSpan(t, cfg)
	spec := ""
	for b := 0; b < cfg.Blades; b++ {
		spec += fmt.Sprintf("blade-crash:blade=%d,at=%dfs;", b, span/4)
	}
	cfg.Faults = mustPlan(t, spec)
	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	if rep.BladeCrashes != cfg.Blades {
		t.Fatalf("crashes fired %d, want %d", rep.BladeCrashes, cfg.Blades)
	}
	for _, bs := range rep.PerBlade {
		if bs.Health != "down" {
			t.Fatalf("blade %d health %q, want down", bs.Blade, bs.Health)
		}
	}
	if rep.ShedRejected == 0 {
		t.Fatal("arrivals into a dead fleet were not rejected")
	}
}

// TestBladeFaultValidation: fleet faults must name blades of the pool.
func TestBladeFaultValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.Cal = mustCal(t)
	cfg.Faults = mustPlan(t, "blade-crash:blade=99,at=5ms")
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range blade index accepted")
	}
}
