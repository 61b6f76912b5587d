package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"cellport/internal/exec"
	"cellport/internal/experiments"
	"cellport/internal/marvel"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// racePoint is one (scheme, geometry, batch) calibration point.
type racePoint struct {
	scheme serve.Scheme
	tall   bool
	k      int
}

// raceSim is a point's simulated half: the virtual-time data the digest
// covers.
type raceSim struct {
	Scheme     string       `json:"scheme"`
	Tall       bool         `json:"tall"`
	K          int          `json:"k"`
	SimService sim.Duration `json:"sim_service_fs"`
	EstService sim.Duration `json:"est_service_fs"`
	Events     uint64       `json:"events"`
	TableMatch bool         `json:"table_match"`
	Mismatches int          `json:"mismatches"`
}

// race runs every calibration point of the full-size estimator race on
// both clocks: marvel.RunPorted of the point's exact calibration config
// for the simulated half, then exec.Backend.Execute of the same batch for
// the real half. Set-up builds the artifacts (including the per-point
// host references the bit-exactness check reads) and runs
// serve.Calibrate.
type race struct {
	sz      sizes
	cfg     serve.Config
	cal     *serve.Calibration
	points  []racePoint
	backend *exec.Backend

	sims      []raceSim
	bestWall  []int64 // fastest real execution of each point over all passes
	simTime   time.Duration
	events    uint64
	execTime  time.Duration
	images    int
	tasks     uint64
	steals    uint64
	stolen    uint64
	mismatch  int
	passesRun int // traced passes, whose counters are summed above
	cache     cacheUse
}

func newRace(seed uint64, sz sizes) *race {
	frame := marvel.Workload{Images: 1, W: 352, H: 240, Seed: mix(seed, 4)}
	if sz.quick {
		frame.H = 96
	}
	r := &race{sz: sz, cfg: serve.Config{
		MaxBatch:      4,
		TallFrac:      0.25,
		Frame:         frame,
		Variant:       marvel.Optimized,
		MachineConfig: experiments.MachineConfig(),
		Parallel:      workers,
	}}
	for _, tall := range []bool{false, true} {
		for _, s := range []serve.Scheme{serve.SchemeJob, serve.SchemeData} {
			for k := 1; k <= r.cfg.MaxBatch; k++ {
				r.points = append(r.points, racePoint{s, tall, k})
			}
		}
	}
	r.bestWall = make([]int64, len(r.points))
	return r
}

func (r *race) release() {
	r.close()
	r.backend, r.cfg.Artifacts, r.cal = nil, nil, nil
}

func (r *race) setup(tr *tracer) error {
	cfg := r.cfg
	cfg.Artifacts = marvel.NewArtifactCache()
	end := tr.begin("marvel.artifacts")
	err := warmArtifacts(cfg.Artifacts, cfg)
	for _, p := range r.points {
		if err != nil {
			break
		}
		pc := cfg.RacePointConfig(p.scheme, p.tall, p.k)
		_, err = cfg.Artifacts.Reference(pc.MachineConfig.PPEModel, pc.Workload)
	}
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
	r.backend = exec.NewBackend(exec.Options{Workers: workers, Reps: 1, Artifacts: cfg.Artifacts})
	r.cfg, r.cal = cfg, cal
	return nil
}

func (r *race) inputsDigest() string {
	d, _, _ := digestOf(r.cfg.Frame)
	return d
}

func (r *race) iterate(tr *tracer, traced bool) (iteration, error) {
	defer r.cache.track(r.cfg.Artifacts)()
	it := iteration{attempted: len(r.points)}
	sims := make([]raceSim, len(r.points))
	for i, p := range r.points {
		pc := r.cfg.RacePointConfig(p.scheme, p.tall, p.k)
		end := tr.begin("sim.run_ported")
		t0 := time.Now()
		rp, err := marvel.RunPorted(pc)
		simDur := time.Since(t0)
		end()
		if err != nil {
			return iteration{}, fmt.Errorf("point %v: %w", p, err)
		}

		end = tr.begin("exec.execute")
		t0 = time.Now()
		er, err := r.backend.Execute(marvel.ExecPoint{Workload: pc.Workload, Scenario: pc.Scenario, Variant: pc.Variant})
		execDur := time.Since(t0)
		end()
		if err != nil {
			return iteration{}, fmt.Errorf("point %v: %w", p, err)
		}

		ref, err := r.cfg.Artifacts.Reference(pc.MachineConfig.PPEModel, pc.Workload)
		if err != nil {
			return iteration{}, err
		}
		mism := 0
		if len(er.Images) != len(ref.Images) {
			mism = len(ref.Images)
		} else {
			for j := range er.Images {
				mism += marvel.CompareImageResults(&ref.Images[j], &er.Images[j])
			}
		}
		s := raceSim{
			Scheme: p.scheme.String(), Tall: p.tall, K: p.k,
			SimService: rp.Total - rp.OneTime,
			EstService: r.cal.EstimatedService(p.scheme, p.tall, p.k),
			Events:     rp.EventCount,
			Mismatches: mism,
		}
		s.TableMatch = s.SimService == r.cal.MeasuredService(p.scheme, p.tall, p.k)
		sims[i] = s
		if !s.TableMatch || mism != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: race: %s/%v/k%d table-match %v, %d mismatches\n", s.Scheme, p.tall, p.k, s.TableMatch, mism)
			it.failed++
		}
		if r.bestWall[i] == 0 || er.WallNS < r.bestWall[i] {
			r.bestWall[i] = er.WallNS
		}
		if traced {
			r.simTime += simDur
			r.events += rp.EventCount
			r.execTime += execDur
			r.images += pc.Workload.Images
			r.tasks += er.Tasks
			r.steals += er.Steals
			r.stolen += er.Stolen
			r.mismatch += mism
		}
	}
	if traced {
		r.passesRun++
	}
	r.sims = sims
	end := tr.begin("report.marshal")
	digest, _, err := digestOf(sims)
	end()
	if err != nil {
		return iteration{}, err
	}
	it.digest = digest
	return it, nil
}

func (r *race) virtual() (virtualMetrics, error) {
	var svc []float64
	passed := 0
	for _, s := range r.sims {
		svc = append(svc, s.SimService.Seconds()*1e3)
		if s.TableMatch && s.Mismatches == 0 {
			passed++
		}
	}
	vm := virtualMetrics{
		goodput:      float64(passed) / float64(len(r.sims)),
		latencyP50MS: nearestRank(svc, 0.5),
		latencyP99MS: nearestRank(svc, 0.99),
	}
	var err error
	vm.table1Err, vm.eqnsErr, err = modelErrors(r.cfg.Frame.Seed, r.sz.quick, r.cfg.Artifacts)
	return vm, err
}

// estimatorVsReal scores the simulator against the fastest real run of
// every point the way experiments.RaceExp does: the mean relative error
// of the batch-coalescing speedup over the k > 1 points, and the share of
// decisive (geometry, k) comparisons where real execution ranks job and
// data distribution the same way the simulator does.
func (r *race) estimatorVsReal() (meanErr, agree float64) {
	idx := map[racePoint]int{}
	for i, p := range r.points {
		idx[p] = i
	}
	n := 0
	for i, p := range r.points {
		if p.k == 1 {
			continue
		}
		one := idx[racePoint{p.scheme, p.tall, 1}]
		simSU := float64(p.k) * float64(r.sims[one].SimService) / float64(r.sims[i].SimService)
		realSU := float64(p.k) * float64(r.bestWall[one]) / float64(r.bestWall[i])
		meanErr += math.Abs(simSU-realSU) / realSU
		n++
	}
	if n > 0 {
		meanErr /= float64(n)
	}
	decisive, agreed := 0, 0
	for _, tall := range []bool{false, true} {
		for k := 1; k <= r.cfg.MaxBatch; k++ {
			j, d := idx[racePoint{serve.SchemeJob, tall, k}], idx[racePoint{serve.SchemeData, tall, k}]
			gap := float64(r.sims[j].SimService)/float64(r.sims[d].SimService) - 1
			if math.Abs(gap) <= 0.05 {
				continue
			}
			decisive++
			if (gap < 0) == (r.bestWall[j] < r.bestWall[d]) {
				agreed++
			}
		}
	}
	agree = 1
	if decisive > 0 {
		agree = float64(agreed) / float64(decisive)
	}
	return meanErr, agree
}

func (r *race) layers(tr *tracer, from int, add func(string, float64)) {
	add("marvel.artifacts_s", medianSeconds(tr, 0, "marvel.artifacts"))
	r.cache.report(add)
	addCalibrationLayers(tr, r.cfg.MaxBatch, add)

	n := float64(r.passesRun)
	add("sim.run_ported_s", r.simTime.Seconds()/n)
	add("sim.events", float64(r.events)/n)
	add("sim.ns_per_event", float64(r.simTime.Nanoseconds())/float64(r.events))

	add("exec.execute_s", r.execTime.Seconds()/n)
	add("exec.images_per_s", float64(r.images)/r.execTime.Seconds())
	add("exec.tasks", float64(r.tasks)/n)
	add("exec.steals", float64(r.steals)/n)
	add("exec.stolen_per_task", float64(r.stolen)/float64(r.tasks))
	add("exec.mismatches", float64(r.mismatch))
	meanErr, agree := r.estimatorVsReal()
	add("exec.speedup_err_mean", meanErr)
	add("exec.rank_agree", agree)

	add("report.marshal_s", medianSeconds(tr, from, "report.marshal"))
}

func (r *race) close() {
	if r.backend != nil {
		r.backend.Close()
	}
}
