package serve

import (
	"bytes"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// fleetConfig is the acceptance scenario scaled to test size: 4 pools of
// 2 blades under the shared calibration, overloaded, with a diurnal +
// flash-crowd stream and the autoscaler armed.
func fleetConfig(t *testing.T) Config {
	t.Helper()
	cfg := quickConfig()
	cfg.Blades = 2
	cfg.Pools = 4
	cfg.Requests = 96
	cfg.Rate = 1.5
	cfg.Cal = mustCal(t)
	cfg.Load = &RateModel{DiurnalAmp: 0.6, FlashCount: 2, FlashFactor: 3}
	cfg.Autoscale = &Autoscale{}
	return cfg
}

// TestFleetDeterminismMatrix is the determinism guarantee at fleet
// scale: one fleet run under flash-crowd load, routing, and autoscaling
// is byte-identical when repeated and across calibration parallelism.
func TestFleetDeterminismMatrix(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	base := fleetConfig(t)
	golden := marshal(t, mustRun(t, base))
	if got := marshal(t, mustRun(t, base)); !bytes.Equal(got, golden) {
		t.Fatalf("repeated fleet run diverged:\n got %s\nwant %s", got, golden)
	}
	par := base
	par.Parallel = 8
	if got := marshal(t, mustRun(t, par)); !bytes.Equal(got, golden) {
		t.Fatalf("-parallel 8 changed the fleet report")
	}
}

// TestFleetLedgerConservation: the six-term ledger balances exactly
// under routing + autoscaling, the per-pool served counts re-sum to the
// fleet total, and every request the router placed is accounted.
func TestFleetLedgerConservation(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	for _, seed := range []uint64{1, 7, 42} {
		cfg := fleetConfig(t)
		cfg.Seed = seed
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.Fleet == nil {
			t.Fatalf("seed %d: fleet run produced no fleet stats", seed)
		}
		if rep.Fleet.Pools != cfg.Pools {
			t.Fatalf("seed %d: fleet stats report %d pools, want %d", seed, rep.Fleet.Pools, cfg.Pools)
		}
		var poolServed int
		for i, ps := range rep.Fleet.PerPool {
			if ps.Pool != i {
				t.Fatalf("seed %d: per-pool merge out of order: index %d holds pool %d", seed, i, ps.Pool)
			}
			if ps.Blades != cfg.Blades {
				t.Fatalf("seed %d: pool %d reports %d blades, want %d", seed, i, ps.Blades, cfg.Blades)
			}
			poolServed += ps.Served
		}
		if poolServed != rep.Served {
			t.Fatalf("seed %d: per-pool served sums to %d, fleet served %d", seed, poolServed, rep.Served)
		}
		if rep.Blades != cfg.Pools*cfg.Blades {
			t.Fatalf("seed %d: fleet report blades %d, want %d", seed, rep.Blades, cfg.Pools*cfg.Blades)
		}
	}
}

// TestFleetAutoscaleDrains: under the diurnal stream's off-peak trough
// the autoscaler must demonstrably drain pools — the observed minimum
// active count drops below the configured fleet size — and scale
// actions are reflected in the stats.
func TestFleetAutoscaleDrains(t *testing.T) {
	cfg := fleetConfig(t)
	rep := mustRun(t, cfg)
	f := rep.Fleet
	if f == nil {
		t.Fatal("fleet run produced no fleet stats")
	}
	if f.ScaleDowns == 0 {
		t.Fatalf("autoscaler never drained a pool: %+v", f)
	}
	if f.ActiveMin >= f.Pools {
		t.Fatalf("active_min %d never dropped below the fleet size %d", f.ActiveMin, f.Pools)
	}
	// The drain must go through the lifecycle machinery: some blade ends
	// the run parked or draining, or was revived through warming.
	saw := false
	for _, bs := range rep.PerBlade {
		if bs.Health == "parked" || bs.Health == "draining" || bs.Health == "warming" {
			saw = true
		}
	}
	if !saw && f.ScaleUps == 0 {
		t.Fatalf("scale-downs fired but no blade shows a lifecycle drain state: %+v", rep.PerBlade)
	}
}

// TestFleetStaticNoAutoscale: without an Autoscale config the fleet is
// static — no scale actions, every pool active throughout.
func TestFleetStaticNoAutoscale(t *testing.T) {
	cfg := fleetConfig(t)
	cfg.Autoscale = nil
	rep := mustRun(t, cfg)
	f := rep.Fleet
	if f == nil {
		t.Fatal("fleet run produced no fleet stats")
	}
	if f.ScaleUps != 0 || f.ScaleDowns != 0 || f.ActiveMin != f.Pools || f.ActiveFinal != f.Pools {
		t.Fatalf("static fleet scaled anyway: %+v", f)
	}
	checkLedger(t, rep)
}

// TestFleetBeatsSinglePool: on the identical arrival stream (offered
// rate pinned in absolute terms), the fleet's goodput under overload
// beats the static single-pool baseline — the router spreads what one
// admission queue would have shed.
func TestFleetBeatsSinglePool(t *testing.T) {
	cal := mustCal(t)
	fleet := fleetConfig(t)
	fleet.Autoscale = nil // static fleet: capacity comparison, not scaling
	// Pin the absolute offered rate at 1.5× the whole fleet's capacity so
	// both runs consume the byte-identical stream.
	offered := 1.5 * cal.perBlade * float64(fleet.Pools*fleet.Blades)
	fleet.OfferedRPS = offered
	fleet.Rate = 0

	single := fleet
	single.Pools = 0
	single.Load = fleet.Load
	fleetRep := mustRun(t, fleet)
	singleRep := mustRun(t, single)

	if fleetRep.OfferedRPS != singleRep.OfferedRPS {
		t.Fatalf("offered rates diverged: fleet %v single %v", fleetRep.OfferedRPS, singleRep.OfferedRPS)
	}
	goodput := func(r *Report) int { return r.Served - r.Late }
	if gf, gs := goodput(fleetRep), goodput(singleRep); gf <= gs {
		t.Fatalf("fleet goodput %d does not beat the single-pool baseline %d (fleet served %d late %d; single served %d late %d)",
			gf, gs, fleetRep.Served, fleetRep.Late, singleRep.Served, singleRep.Late)
	}
	checkLedger(t, fleetRep)
	checkLedger(t, singleRep)
}

// TestFleetArmedUnfiredPlan: a fleet fault plan scheduled entirely past
// the end of the run must leave the report byte-identical to running
// with no plan at all — the PR-3 invariant at fleet scope, now with
// routing and autoscaling in the loop.
func TestFleetArmedUnfiredPlan(t *testing.T) {
	base := fleetConfig(t)
	golden := marshal(t, mustRun(t, base))

	armed := base
	armed.Faults = mustPlan(t, "blade-crash:blade=0,at=1800s;blade-restart:blade=5,at=1900s,drain=1s")
	if got := marshal(t, mustRun(t, armed)); !bytes.Equal(got, golden) {
		t.Fatalf("armed-but-unfired fleet plan changed the report:\n got %s\nwant %s", got, golden)
	}
}

// TestFleetChaos: seeded blade-lifecycle chaos over the routed fleet —
// the ledger still conserves.
func TestFleetChaos(t *testing.T) {
	checkBacklogs(t)
	checkFrontiers(t)
	cfg := fleetConfig(t)
	total := cfg.Pools * cfg.Blades
	offered := cfg.Rate * cfg.Cal.perBlade * float64(total)
	span := sim.FromSeconds(float64(cfg.Requests) / offered)
	for _, seed := range []uint64{3, 11} {
		cfg.Faults = fault.SeededFleet(seed, total, span)
		checkLedger(t, mustRun(t, cfg))
	}
}

// TestFleetRouterStability: with a conclusive estimator the router keeps
// the ledger conserved while overriding the hash placement at least
// occasionally under skewed load, and the consistent-hash path routes
// every request somewhere while capacity remains.
func TestFleetRouterStability(t *testing.T) {
	cfg := fleetConfig(t)
	cfg.Autoscale = nil
	rep := mustRun(t, cfg)
	checkLedger(t, rep)
	var routed int
	for _, ps := range rep.Fleet.PerPool {
		routed += ps.Routed
		if ps.Routed == 0 {
			t.Fatalf("pool %d was never routed to: %+v", ps.Pool, rep.Fleet.PerPool)
		}
	}
	if routed < rep.Served {
		t.Fatalf("router placed %d requests but %d were served", routed, rep.Served)
	}
}

// FuzzFleetLedger drives seeded routing + autoscale + chaos through
// arbitrary (seed, shape) corners and checks the invariants that must
// never break: exact six-term ledger conservation, and (through
// checkBacklogs and checkFrontiers) the incrementally kept blade
// backlogs, completion heap and pool frontiers. Queues are short so
// pools reach their room bound and global backpressure.
func FuzzFleetLedger(f *testing.F) {
	f.Add(uint64(7), uint64(0), uint8(4), false)
	f.Add(uint64(1), uint64(3), uint8(2), true)
	f.Add(uint64(42), uint64(9), uint8(6), true)
	cal, err := sharedCal()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed, faultSeed uint64, pools uint8, autoscale bool) {
		checkBacklogs(t)
		checkFrontiers(t)
		cfg := quickConfig()
		cfg.Blades = 2
		cfg.Pools = 1 + int(pools%6)
		cfg.MaxQueue = 2
		cfg.Requests = 48
		cfg.Rate = 1.5
		cfg.Seed = seed
		cfg.Cal = cal
		cfg.Load = &RateModel{DiurnalAmp: 0.5, FlashCount: 1 + int(seed%3), FlashFactor: 2.5}
		if autoscale {
			cfg.Autoscale = &Autoscale{}
		}
		total := cfg.Pools * cfg.Blades
		offered := cfg.Rate * cal.perBlade * float64(total)
		span := sim.FromSeconds(float64(cfg.Requests) / offered)
		if faultSeed != 0 {
			cfg.Faults = fault.SeededFleet(faultSeed, total, span)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, rep)
	})
}
