package serve

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"cellport/internal/marvel"
	"cellport/internal/sim"
)

// quickConfig is the small, fast serve configuration the tests share:
// the reduced-height frame keeps one calibration (16 simulations) well
// under a second.
func quickConfig() Config {
	return Config{
		Blades:    3,
		MaxQueue:  6,
		MaxBatch:  3,
		Requests:  64,
		Rate:      1.6,
		Burst:     2,
		TallFrac:  0.25,
		Seed:      7,
		Frame:     marvel.Workload{W: 352, H: 96, Seed: 20070710},
		Parallel:  4,
		Artifacts: marvel.NewArtifactCache(),
	}
}

// sharedCal memoizes one calibration of the quick configuration for the
// tests that only exercise the event loop.
var sharedCal = sync.OnceValues(func() (*Calibration, error) {
	return Calibrate(quickConfig())
})

func mustCal(t *testing.T) *Calibration {
	t.Helper()
	cal, err := sharedCal()
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func marshal(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeDeterminism is the tentpole guarantee: the serialized report
// is a pure function of (Config, seed) — byte-identical across repeated
// runs, across calibration parallelism, across a shared vs private
// calibration, and with instrumentation on or off.
func TestServeDeterminism(t *testing.T) {
	base := quickConfig()
	golden := marshal(t, mustRun(t, base))

	rerun := base
	rerun.Artifacts = marvel.NewArtifactCache() // fresh caches: nothing carried over
	if got := marshal(t, mustRun(t, rerun)); !bytes.Equal(got, golden) {
		t.Fatalf("rerun diverged:\n got %s\nwant %s", got, golden)
	}

	for _, par := range []int{1, 8} {
		cfg := base
		cfg.Parallel = par
		cfg.Artifacts = marvel.NewArtifactCache()
		if got := marshal(t, mustRun(t, cfg)); !bytes.Equal(got, golden) {
			t.Fatalf("parallel=%d diverged:\n got %s\nwant %s", par, got, golden)
		}
	}

	shared := base
	shared.Cal = mustCal(t)
	if got := marshal(t, mustRun(t, shared)); !bytes.Equal(got, golden) {
		t.Fatalf("shared calibration diverged from private:\n got %s\nwant %s", got, golden)
	}

	inst := base
	inst.Instrument = true
	inst.Artifacts = marvel.NewArtifactCache()
	rep := mustRun(t, inst)
	if got := marshal(t, rep); !bytes.Equal(got, golden) {
		t.Fatalf("instrumented JSON diverged:\n got %s\nwant %s", got, golden)
	}
	for _, bs := range rep.PerBlade {
		if bs.Trace == nil || bs.Metrics == nil {
			t.Fatalf("blade %d missing trace/metrics under Instrument", bs.Blade)
		}
		if bs.Dispatches > 0 && len(bs.Trace.Spans()) == 0 {
			t.Fatalf("blade %d dispatched %d batches but recorded no spans", bs.Blade, bs.Dispatches)
		}
	}
}

// checkLedger asserts full request conservation over every shed
// category (including the lifecycle ones) and that the per-blade merge
// stayed blade-index-ordered.
func checkLedger(t *testing.T, rep *Report) {
	t.Helper()
	total := rep.Served + rep.ShedRejected + rep.ShedExpired + rep.ShedRerouted + rep.ShedExhausted + rep.ShedGlobal
	if total != rep.Requests {
		t.Fatalf("ledger leaks: served %d + rejected %d + expired %d + rerouted %d + exhausted %d + global %d = %d, want %d",
			rep.Served, rep.ShedRejected, rep.ShedExpired, rep.ShedRerouted, rep.ShedExhausted, rep.ShedGlobal, total, rep.Requests)
	}
	for i, bs := range rep.PerBlade {
		if bs.Blade != i {
			t.Fatalf("per-blade merge out of order: index %d holds blade %d", i, bs.Blade)
		}
	}
}

// TestServeConservation checks the admission ledger: every generated
// request is served, rejected at admission, or shed as hopeless —
// nothing is lost or double-counted.
func TestServeConservation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := quickConfig()
		cfg.Seed = seed
		cfg.Cal = mustCal(t)
		rep := mustRun(t, cfg)
		checkLedger(t, rep)
		if rep.Served > 0 && (rep.LatencyP50 <= 0 || rep.LatencyP50 > rep.LatencyP95 || rep.LatencyP95 > rep.LatencyP99) {
			t.Fatalf("seed %d: percentiles out of order: p50=%v p95=%v p99=%v",
				seed, rep.LatencyP50, rep.LatencyP95, rep.LatencyP99)
		}
		var reqs int
		for _, bs := range rep.PerBlade {
			reqs += bs.Requests
			if bs.Dispatches > 0 && bs.Warmup <= 0 {
				t.Fatalf("seed %d: blade %d dispatched but charged no warmup", seed, bs.Blade)
			}
		}
		if reqs != rep.Served {
			t.Fatalf("seed %d: per-blade requests sum %d != served %d", seed, reqs, rep.Served)
		}
	}
}

// TestServeBatchCoalescing checks that overload actually coalesces
// compatible requests: mean batch size above one, and strictly fewer
// dispatches than served requests.
func TestServeBatchCoalescing(t *testing.T) {
	checkBacklogs(t)
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Cal = mustCal(t)
	rep := mustRun(t, cfg)
	if rep.MeanBatch <= 1.2 {
		t.Fatalf("mean batch %.2f under 2× overload, want coalescing > 1.2", rep.MeanBatch)
	}
	if rep.Batches >= rep.Served {
		t.Fatalf("batches %d >= served %d: no coalescing happened", rep.Batches, rep.Served)
	}
}

// TestServeDeadlineShedding checks the deadline machinery: a deadline
// tighter than the queueing delay under overload must shed hopeless
// requests before dispatch, and no served request may be reported both
// on time and past its deadline inconsistently.
func TestServeDeadlineShedding(t *testing.T) {
	checkBacklogs(t)
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Deadline = 150 * sim.Millisecond
	cfg.Cal = mustCal(t)
	rep := mustRun(t, cfg)
	if rep.ShedExpired == 0 {
		t.Fatalf("tight deadline under overload shed nothing: %+v", rep)
	}
	if rep.Served+rep.ShedRejected+rep.ShedExpired != rep.Requests {
		t.Fatalf("ledger broken with deadlines: %+v", rep)
	}

	// Disabling deadlines must eliminate both expiry sheds and lateness.
	cfg.Deadline = -1
	rep = mustRun(t, cfg)
	if rep.ShedExpired != 0 || rep.Late != 0 {
		t.Fatalf("deadline-free run reports expired=%d late=%d", rep.ShedExpired, rep.Late)
	}
}

// TestEstimatorBeatsRoundRobin pins the acceptance scenario: under 2×
// overload with mixed frame geometries, estimator-driven placement
// serves strictly more requests (and rejects strictly fewer) than blind
// round-robin over the identical calibration and arrival stream, and it
// exercises both scheduling schemes.
func TestEstimatorBeatsRoundRobin(t *testing.T) {
	cfg := quickConfig()
	cfg.Rate = 2
	cfg.Burst = 1
	cfg.Cal = mustCal(t)

	cfg.Policy = PolicyEstimator
	est := mustRun(t, cfg)
	cfg.Policy = PolicyRoundRobin
	rr := mustRun(t, cfg)

	if est.Served <= rr.Served {
		t.Fatalf("estimator served %d, round-robin %d: estimator must win this pinned scenario", est.Served, rr.Served)
	}
	if est.ShedRejected >= rr.ShedRejected {
		t.Fatalf("estimator rejected %d, round-robin %d: estimator must shed less", est.ShedRejected, rr.ShedRejected)
	}
	if est.SchemeBatches["data-dist"] == 0 || est.SchemeBatches["job-dist"] == 0 {
		t.Fatalf("estimator used only one scheme: %v", est.SchemeBatches)
	}
	if rr.SchemeBatches["data-dist"] != 0 {
		t.Fatalf("round-robin must stick to job distribution, got %v", rr.SchemeBatches)
	}
	if !est.EstimatorConclusive {
		t.Fatal("quick workload calibration should be conclusive")
	}
}

// TestServeInconclusiveFallsBack forces an inconclusive calibration and
// checks the estimator policy degrades to round-robin placement instead
// of failing.
func TestServeInconclusiveFallsBack(t *testing.T) {
	cal := mustCal(t)
	broken := &Calibration{maxBatch: cal.maxBatch, svcs: cal.svcs}
	for i, g := range cal.geoms {
		gc := *g
		gc.Conclusive = false
		broken.geoms[i] = &gc
	}
	broken.derive()

	cfg := quickConfig()
	cfg.Cal = broken
	cfg.Policy = PolicyEstimator
	est := mustRun(t, cfg)
	cfg.Policy = PolicyRoundRobin
	rr := mustRun(t, cfg)

	if est.EstimatorConclusive {
		t.Fatal("broken calibration reported conclusive")
	}
	// With the estimator disarmed, both policies are the same rotation.
	ej, rj := marshal(t, est), marshal(t, rr)
	ej = bytes.Replace(ej, []byte(`"policy":"estimator"`), []byte(`"policy":"round-robin"`), 1)
	if !bytes.Equal(ej, rj) {
		t.Fatalf("inconclusive estimator diverged from round-robin:\n est %s\n rr  %s", ej, rj)
	}
}

// TestCalibrationTable checks the measured service table is total over
// its key grid and that warmup is geometry-invariant batch-invariant
// one-time work.
func TestCalibrationTable(t *testing.T) {
	cal := mustCal(t)
	cfg := quickConfig()
	for s := Scheme(0); s < numSchemes; s++ {
		for _, tall := range []bool{false, true} {
			for k := 1; k <= cfg.MaxBatch; k++ {
				v := cal.service(s, tall, k)
				if v.Service <= 0 || v.Warmup <= 0 {
					t.Fatalf("missing table entry %v/%v/k=%d: %+v", s, tall, k, v)
				}
				if v.Degraded {
					t.Fatalf("fault-free calibration marked degraded at %v/%v/k=%d", s, tall, k)
				}
			}
		}
	}
	if cal.PerBladeCapacity() <= 0 {
		t.Fatal("non-positive per-blade capacity")
	}
	// Larger batches must take longer end to end but amortize better:
	// service(k)/k non-increasing for data distribution.
	for _, s := range []Scheme{SchemeJob, SchemeData} {
		prev := cal.service(s, false, 1).Service
		for k := 2; k <= cfg.MaxBatch; k++ {
			cur := cal.service(s, false, k).Service
			if cur <= prev {
				t.Fatalf("%v service not increasing in batch size at k=%d", s, k)
			}
			if float64(cur)/float64(k) > float64(prev) {
				t.Fatalf("%v per-request service worsened with batching at k=%d", s, k)
			}
			prev = cur
		}
	}
}
