package main

import (
	"fmt"
	"os"
	"runtime"

	"cellport/internal/experiments"
	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// fleetFrameSeed fixes the fleet's frame corpus: the seed varies the
// arrival stream and the restart plan, so calibration (the set-up) does
// the same work on every seed.
const fleetFrameSeed = 20070710

// fleetLoad is the offered load as a multiple of the fleet's estimated
// capacity.
const fleetLoad = 0.6

// fleet serves a diurnal open-loop request stream on routed blade pools
// with the autoscaler armed and a seeded rolling-restart plan. Set-up
// builds the artifacts and runs serve.Calibrate; each measured pass is
// one serve.Run (calibration preset) plus encoding/json of its report.
// The load model carries no flash-crowd windows: their seeded placement
// against the diurnal peak swings the served share between about 70% and
// 90% from one seed to the next (README.md), more than any regression
// bound can hold.
type fleet struct {
	sz       sizes
	restarts uint64 // fault.SeededFleet seed
	cfg      serve.Config
	rep      *serve.Report
	repBytes int
	allocs   []float64 // mallocs per request of each traced pass
}

func newFleet(seed uint64, sz sizes) *fleet {
	f := &fleet{sz: sz, restarts: mix(seed, 2)}
	frame := marvel.Workload{Images: 1, W: 352, H: 240, Seed: fleetFrameSeed}
	if sz.quick {
		frame.H = 96
	}
	f.cfg = serve.Config{
		Blades:        sz.blades,
		Pools:         sz.pools,
		MaxBatch:      4,
		MaxQueue:      8,
		Requests:      sz.requests,
		Burst:         2,
		TallFrac:      0.25,
		Seed:          mix(seed, 1),
		Policy:        serve.PolicyEstimator,
		Frame:         frame,
		Variant:       marvel.Optimized,
		MachineConfig: experiments.MachineConfig(),
		Parallel:      workers,
		Shards:        workers,
		Load:          &serve.RateModel{DiurnalAmp: 0.6},
		Autoscale:     &serve.Autoscale{},
	}
	return f
}

// warmArtifacts builds every artifact calibration reads: per geometry the
// image sets for batch sizes 1..MaxBatch, the model set and the PPE
// reference run.
func warmArtifacts(cache *marvel.ArtifactCache, cfg serve.Config) error {
	if _, err := cache.ModelSet(cfg.Frame.Seed); err != nil {
		return err
	}
	for _, tall := range []bool{false, true} {
		w := cfg.Frame
		if tall {
			w.H *= 2
		}
		for k := 1; k <= cfg.MaxBatch; k++ {
			w.Images = k
			cache.Images(w)
		}
		w.Images = 1
		if _, err := cache.Reference(cfg.MachineConfig.PPEModel, w); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) release() {
	f.cfg.Artifacts, f.cfg.Cal, f.rep = nil, nil, nil
}

func (f *fleet) setup(tr *tracer) error {
	cfg := f.cfg
	cfg.Artifacts = marvel.NewArtifactCache()
	end := tr.begin("marvel.artifacts")
	err := warmArtifacts(cfg.Artifacts, cfg)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("serve.calibrate")
	cal, err := serve.Calibrate(cfg)
	end()
	if err != nil {
		return err
	}
	cfg.Cal = cal
	// Pin the offered load in absolute terms and span the restart plan
	// over the stream's expected busy window.
	cfg.OfferedRPS = fleetLoad * cal.PerBladeCapacity() * float64(cfg.Pools*cfg.Blades)
	span := sim.FromSeconds(float64(cfg.Requests) / cfg.OfferedRPS)
	cfg.Faults = fault.SeededFleet(f.restarts, cfg.Pools*cfg.Blades, span)
	f.cfg = cfg
	return nil
}

func (f *fleet) inputsDigest() string {
	c := f.cfg
	d, _, _ := digestOf(struct {
		Seed            uint64
		OfferedRPS      float64
		Requests        int
		Pools, Blades   int
		Load            serve.RateModel
		Faults          string
		FrameW, FrameH  int
		TallFrac, Burst float64
	}{c.Seed, c.OfferedRPS, c.Requests, c.Pools, c.Blades, *c.Load, c.Faults.String(),
		c.Frame.W, c.Frame.H, c.TallFrac, c.Burst})
	return d
}

func (f *fleet) iterate(tr *tracer, traced bool) (iteration, error) {
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	end := tr.begin("serve.run")
	rep, err := serve.Run(f.cfg)
	end()
	if err != nil {
		return iteration{}, err
	}
	if traced {
		runtime.ReadMemStats(&m1)
		f.allocs = append(f.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(rep.Requests))
	}
	end = tr.begin("report.marshal")
	digest, b, err := digestOf(rep)
	end()
	if err != nil {
		return iteration{}, err
	}
	f.rep, f.repBytes = rep, len(b)
	it := iteration{digest: digest, attempted: rep.Requests}
	if err := checkLedger(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fleet:", err)
		it.failed = rep.Requests
	}
	return it, nil
}

// checkLedger verifies the six-term shed ledger and the fleet shape.
func checkLedger(r *serve.Report) error {
	sum := r.Served + r.ShedRejected + r.ShedExpired + r.ShedRerouted + r.ShedExhausted + r.ShedGlobal
	if sum != r.Requests {
		return fmt.Errorf("ledger does not balance: served %d + rejected %d + expired %d + rerouted %d + exhausted %d + global %d = %d, want %d requests",
			r.Served, r.ShedRejected, r.ShedExpired, r.ShedRerouted, r.ShedExhausted, r.ShedGlobal, sum, r.Requests)
	}
	if r.Fleet == nil {
		return fmt.Errorf("report carries no fleet section")
	}
	if r.Late > r.Served {
		return fmt.Errorf("%d late requests exceed %d served", r.Late, r.Served)
	}
	return nil
}

func (f *fleet) virtual() (virtualMetrics, error) {
	r := f.rep
	vm := virtualMetrics{
		goodput:      float64(r.Served-r.Late) / float64(r.Requests),
		latencyP50MS: r.LatencyP50.Seconds() * 1e3,
		latencyP99MS: r.LatencyP99.Seconds() * 1e3,
	}
	var err error
	vm.table1Err, vm.eqnsErr, err = modelErrors(f.cfg.Frame.Seed, f.sz.quick, f.cfg.Artifacts)
	return vm, err
}

func (f *fleet) layers(tr *tracer, from int, add func(string, float64)) {
	r := f.rep
	add("marvel.artifacts_s", medianSeconds(tr, 0, "marvel.artifacts"))
	addCalibrationLayers(tr, f.cfg.MaxBatch, add)

	run := medianSeconds(tr, from, "serve.run")
	add("serve.run_s", run)
	add("serve.us_per_request", run*1e6/float64(r.Requests))
	if len(f.allocs) > 0 {
		add("serve.allocs_per_request", median(f.allocs))
	}
	add("serve.epochs", float64(r.Epochs))
	add("serve.barriers", float64(r.Barriers))
	add("serve.window_admit_ratio", float64(r.WindowAdmits)/float64(r.Requests))

	add("serve.requests", float64(r.Requests))
	add("serve.batches", float64(r.Batches))
	add("serve.mean_batch", r.MeanBatch)
	add("serve.router_overrides", float64(r.Fleet.RouterOverrides))
	add("serve.scale_ups", float64(r.Fleet.ScaleUps))
	add("serve.scale_downs", float64(r.Fleet.ScaleDowns))
	add("serve.rerouted", float64(r.Rerouted))
	add("serve.policy_fallbacks", float64(r.PolicyFallbacks))
	add("serve.late", float64(r.Late))
	add("serve.latency_samples", float64(r.Served))

	shed := r.ShedRejected + r.ShedExpired + r.ShedGlobal + r.ShedRerouted + r.ShedExhausted
	add("serve.shed_frac", float64(shed)/float64(r.Requests))
	add("serve.shed_rejected", float64(r.ShedRejected))
	add("serve.shed_expired", float64(r.ShedExpired))
	add("serve.shed_global", float64(r.ShedGlobal))
	add("serve.shed_rerouted", float64(r.ShedRerouted))
	add("serve.shed_exhausted", float64(r.ShedExhausted))

	add("report.marshal_s", medianSeconds(tr, from, "report.marshal"))
	add("report.bytes", float64(f.repBytes))
}

func (f *fleet) close() {}

func addCalibrationLayers(tr *tracer, maxBatch int, add func(string, float64)) {
	cal, runs := medianSeconds(tr, 0, "serve.calibrate"), calibrationRuns(maxBatch)
	add("serve.calibrate_s", cal)
	add("serve.calibrate_points", float64(runs))
	add("serve.calibrate_ms_per_point", cal*1e3/float64(runs))
}

// calibrationRuns is the number of machine simulations serve.Calibrate
// runs with tall frames enabled: per geometry one clean single-SPE run
// plus every (scheme, batch size) service point.
func calibrationRuns(maxBatch int) int { return 2 * (1 + 2*maxBatch) }

// modelErrors regenerates Table 1 and the Eqs. 2/3 validation on the
// full-size (or quick) machine model every workload runs on, sharing the
// workload's artifacts: the mean relative error of the simulated kernel
// speed-ups against the published Table 1, and the largest Eqs. 2/3
// estimate-vs-simulated error over the scenarios.
func modelErrors(seed uint64, quick bool, cache *marvel.ArtifactCache) (table1, eqns float64, err error) {
	cfg := experiments.Config{Quick: quick, Seed: seed, Parallel: workers, Artifacts: cache}
	rows, err := experiments.Table1(cfg)
	if err != nil {
		return 0, 0, err
	}
	er, err := experiments.Eqns(cfg)
	if err != nil {
		return 0, 0, err
	}
	return table1Err(rows), eqnsErr(er), nil
}

func table1Err(rows []experiments.Table1Row) float64 {
	var sum float64
	for _, r := range rows {
		sum += abs(r.SpeedUp-r.PaperSpeedUp) / r.PaperSpeedUp
	}
	return sum / float64(len(rows))
}

func eqnsErr(r *experiments.EqnsResult) float64 {
	var worst float64
	for _, s := range r.Scenarios {
		if e := abs(s.ErrorFrac); e > worst {
			worst = e
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
