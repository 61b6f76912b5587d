package serve

import (
	"fmt"

	"cellport/internal/amdahl"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// Scheme selects the scheduling scheme a batch is dispatched under — the
// §4 job- vs data-distribution choice the paper's estimator exists to
// make.
type Scheme int

const (
	// SchemeJob is job distribution: each kernel resident on its own SPE
	// (extractions on SPE0-3, replicated detections on SPE4-7), one image
	// at a time — marvel.MultiSPE2.
	SchemeJob Scheme = iota
	// SchemeData is data distribution across the batch: the same kernel
	// placement, but the PPE streams the batch's images through the SPEs
	// with double-buffered preprocessing so image i+1's preprocessing
	// overlaps image i's SPE work — marvel.Pipelined.
	SchemeData
	numSchemes
)

func (s Scheme) String() string {
	if s == SchemeJob {
		return "job-dist"
	}
	return "data-dist"
}

func (s Scheme) scenario() marvel.Scenario {
	if s == SchemeJob {
		return marvel.MultiSPE2
	}
	return marvel.Pipelined
}

// svc is one measured dispatch: the steady-state service time of a
// k-image batch, the one-time warm-up (model load) charged on a blade's
// first dispatch, and whether the run's supervision loop had to degrade
// (retries, redispatches or PPE fallbacks under an armed fault plan).
type svc struct {
	Service  sim.Duration
	Warmup   sim.Duration
	Degraded bool
	DegTime  sim.Duration
}

// geomCal holds one frame geometry's estimator inputs and outputs.
type geomCal struct {
	// RefPerImage is the PPE reference per-image processing time.
	RefPerImage sim.Duration
	// NonKernel is the per-image PPE time outside the five kernels
	// (preprocessing, glue) — the part no SPE scheme can remove.
	NonKernel sim.Duration
	// LaneMax is the slowest extraction+detection lane's estimated SPE
	// time, from the Eq. 3 lane construction.
	LaneMax sim.Duration
	// EstSpeedUp is the Eq. 3 whole-application speed-up estimate for the
	// job-distribution scheme.
	EstSpeedUp float64
	// Conclusive reports whether the estimate is usable (valid kernel
	// fractions and speed-ups); inconclusive geometries make the policy
	// fall back to round-robin.
	Conclusive bool
}

// Calibration is the measured service table plus the Eqs. 1-3 estimator
// state one serve run (or a pair of runs comparing policies) needs. It is
// a pure function of the serve configuration's workload-shaping fields,
// so two runs sharing a Calibration see identical virtual-time behaviour
// to runs that each calibrated privately. It is immutable once Calibrate
// returns, so concurrent runs may share it.
type Calibration struct {
	maxBatch int
	// svcs is the measured dispatch table by scheme, geometry (geomIdx)
	// and batch size k (index k; index 0 unused). An uncalibrated
	// geometry's rows are nil; Config.Validate rejects a run that could
	// read one, or a batch size past maxBatch.
	svcs [numSchemes][2][]svc
	// geoms is the estimator fit by geometry; nil when not calibrated.
	geoms [2]*geomCal

	// The values below are derived from svcs and geoms once (derive), so
	// the admission and dispatch hot paths only index arrays.
	conclusive bool
	// est1 is the per-request service estimate by geometry (estOne).
	est1 [2]sim.Duration
	// coldWarmup is the warmup a cold blade's placement score pays.
	coldWarmup sim.Duration
	// pick is the estimator's scheme choice by geometry and batch size
	// (estBest); ok false means the estimate could not separate them.
	pick [2][]schemePick
	// perBlade is the estimated per-blade capacity in requests per
	// virtual second at full batch size under the best measured scheme.
	perBlade float64
}

type schemePick struct {
	scheme Scheme
	ok     bool
}

// geomIdx maps a frame geometry onto the tables' index.
func geomIdx(tall bool) int {
	if tall {
		return 1
	}
	return 0
}

// Conclusive reports whether every calibrated geometry produced a usable
// Eq. 3 estimate.
func (c *Calibration) Conclusive() bool { return c.conclusive }

// PerBladeCapacity returns the estimated per-blade throughput ceiling
// (requests per virtual second, standard geometry, full batches).
func (c *Calibration) PerBladeCapacity() float64 { return c.perBlade }

// service returns the measured dispatch record for a point, or the zero
// svc when the point was not calibrated.
func (c *Calibration) service(s Scheme, tall bool, k int) svc {
	row := c.svcs[s][geomIdx(tall)]
	if k < 1 || k >= len(row) {
		return svc{}
	}
	return row[k]
}

// MaxBatch reports the largest batch size the table was measured at.
func (c *Calibration) MaxBatch() int { return c.maxBatch }

// MeasuredService returns the calibrated (simulated) steady-state
// service time for a k-image batch under a scheme and geometry — the
// table entry the serving loop's arithmetic uses. Zero means the point
// was not calibrated. Exported for the estimator-race harness, which
// compares these virtual-time predictions against real executions of
// the same points.
func (c *Calibration) MeasuredService(s Scheme, tall bool, k int) sim.Duration {
	return c.service(s, tall, k).Service
}

// EstimatedService returns the Eqs. 1-3 estimate for the same point
// (zero when the geometry's estimator fit was inconclusive).
func (c *Calibration) EstimatedService(s Scheme, tall bool, k int) sim.Duration {
	return c.estService(s, tall, k)
}

// estService is the estimator's predicted service time for a k-image
// batch under a scheme: job distribution processes images back to back
// (Eq. 3 per image), data distribution overlaps PPE preprocessing of
// image i+1 with SPE work on image i, so only the first image pays both
// serially.
func (c *Calibration) estService(s Scheme, tall bool, k int) sim.Duration {
	g := c.geoms[geomIdx(tall)]
	if g == nil || !g.Conclusive {
		return 0
	}
	perImage := g.NonKernel + g.LaneMax
	if s == SchemeJob {
		return sim.Duration(k) * perImage
	}
	overlap := g.NonKernel
	if g.LaneMax > overlap {
		overlap = g.LaneMax
	}
	return perImage + sim.Duration(k-1)*overlap
}

// estBest returns the faster estimated scheme for a k-image batch and
// whether the choice is conclusive (estimates further apart than the
// estimator's resolution). Inconclusive choices fall back to the fixed
// job-distribution default.
func (c *Calibration) estBest(tall bool, k int) (Scheme, sim.Duration, bool) {
	job := c.estService(SchemeJob, tall, k)
	data := c.estService(SchemeData, tall, k)
	if job <= 0 || data <= 0 {
		return SchemeJob, 0, false
	}
	min, max, best := job, data, SchemeJob
	if data < job {
		min, max, best = data, job, SchemeData
	}
	// Within 0.5% the Eq. 3 estimate cannot distinguish the schemes (the
	// estimate's own error against the measured table is an order of
	// magnitude smaller, so this margin is conservative).
	if float64(max-min) < 0.005*float64(min) {
		return SchemeJob, job, false
	}
	return best, min, true
}

// derive fills the values the hot paths read from the measured table
// and the estimator fits; Calibrate calls it once on the new table.
func (c *Calibration) derive() {
	c.conclusive = c.geoms[0] != nil || c.geoms[1] != nil
	for _, g := range c.geoms {
		if g != nil && !g.Conclusive {
			c.conclusive = false
		}
	}
	c.coldWarmup = c.service(SchemeJob, false, 1).Warmup
	for g, tall := range []bool{false, true} {
		c.est1[g] = c.estService(SchemeJob, tall, 1)
		if c.est1[g] <= 0 {
			c.est1[g] = c.service(SchemeJob, tall, 1).Service
		}
		c.pick[g] = make([]schemePick, c.maxBatch+1)
		for k := 1; k <= c.maxBatch; k++ {
			s, _, ok := c.estBest(tall, k)
			c.pick[g][k] = schemePick{scheme: s, ok: ok}
		}
	}
	// Estimated per-blade capacity: full batches under the best measured
	// scheme at standard geometry.
	best := c.service(SchemeJob, false, c.maxBatch).Service
	if d := c.service(SchemeData, false, c.maxBatch).Service; d < best {
		best = d
	}
	if best > 0 {
		c.perBlade = float64(c.maxBatch) / best.Seconds()
	}
}

// detOpsShare apportions the detection kernel's time across the four
// feature lanes by nominal operation count (the Eq. 3 lane construction
// of §4.2).
func detOpsShare(n, dim int) float64 {
	total := float64(marvel.NumSVCH)*(3*float64(marvel.DimCH)+25) +
		float64(marvel.NumSVCC)*(3*float64(marvel.DimCC)+25) +
		float64(marvel.NumSVEH)*(3*float64(marvel.DimEH)+25) +
		float64(marvel.NumSVTX)*(3*float64(marvel.DimTX)+25)
	return float64(n) * (3*float64(dim) + 25) / total
}

// Calibrate measures the dispatch service table (every scheme × geometry
// × batch size the loop can request) and fits the Eqs. 1-3 estimator
// from a PPE reference run and a single-SPE ported run per geometry. All
// simulations are independent and fan out over the worker pool
// (parallel.RunIndexed) bounded by cfg.Parallel; the assembled table is byte-identical at any parallelism, and
// workcache hits/misses stay deterministic because the job set — not the
// execution order — determines which artifacts are built.
func Calibrate(cfg Config) (*Calibration, error) {
	cfg = cfg.withDefaults()
	geoms := []bool{false}
	if cfg.TallFrac > 0 {
		geoms = append(geoms, true)
	}

	cal := &Calibration{maxBatch: cfg.MaxBatch}
	for _, tall := range geoms {
		for s := range cal.svcs {
			cal.svcs[s][geomIdx(tall)] = make([]svc, cfg.MaxBatch+1)
		}
	}

	// One flat job grid: per geometry a reference run and a single-SPE
	// calibration run, then every (scheme, geometry, batch size) point.
	type jobSpec struct {
		tall   bool
		kind   int // 0 = reference, 1 = single-SPE, 2 = service point
		scheme Scheme
		k      int
	}
	var jobs []jobSpec
	for _, tall := range geoms {
		jobs = append(jobs, jobSpec{tall: tall, kind: 0}, jobSpec{tall: tall, kind: 1})
		for s := Scheme(0); s < numSchemes; s++ {
			for k := 1; k <= cfg.MaxBatch; k++ {
				jobs = append(jobs, jobSpec{tall: tall, kind: 2, scheme: s, k: k})
			}
		}
	}
	type jobOut struct {
		ref    *marvel.ReferenceResult
		ported *marvel.PortedResult
	}
	outs, err := parallel.RunIndexed(cfg.Parallel, len(jobs), func(i int) (jobOut, error) {
		j := jobs[i]
		switch j.kind {
		case 0:
			ref, err := cfg.Artifacts.Reference(cfg.MachineConfig.PPEModel, cfg.workload(j.tall, 1))
			return jobOut{ref: ref}, err
		case 1:
			p, err := marvel.RunPorted(cfg.portedConfig(marvel.SingleSPE, j.tall, 1, false))
			return jobOut{ported: p}, err
		default:
			p, err := marvel.RunPorted(cfg.portedConfig(j.scheme.scenario(), j.tall, j.k, true))
			return jobOut{ported: p}, err
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serve: calibration: %w", err)
	}

	var refs [2]*marvel.ReferenceResult
	var singles [2]*marvel.PortedResult
	for i, j := range jobs {
		switch j.kind {
		case 0:
			refs[geomIdx(j.tall)] = outs[i].ref
		case 1:
			singles[geomIdx(j.tall)] = outs[i].ported
		default:
			p := outs[i].ported
			s := svc{Service: p.Total - p.OneTime, Warmup: p.OneTime}
			if rep := p.Faults; rep != nil {
				s.Degraded = rep.Retries > 0 || rep.Redispatches > 0 || rep.Fallbacks > 0
				s.DegTime = rep.DegradedTime
			}
			cal.svcs[j.scheme][geomIdx(j.tall)][j.k] = s
		}
	}
	for _, tall := range geoms {
		g := geomIdx(tall)
		cal.geoms[g] = fitEstimator(refs[g], singles[g])
	}
	cal.derive()
	return cal, nil
}

// fitEstimator builds one geometry's Eq. 3 lane estimate from the
// measured kernel coverage (reference run) and kernel speed-ups
// (single-SPE round trips), exactly the §4.2 procedure.
func fitEstimator(ref *marvel.ReferenceResult, single *marvel.PortedResult) *geomCal {
	g := &geomCal{RefPerImage: ref.PerImage}
	cov := ref.KernelCoverage()
	speed := map[marvel.KernelID]float64{}
	var kernelSum sim.Duration
	for _, id := range marvel.KernelIDs {
		if single.KernelTime[id] <= 0 {
			return g // no usable speed-up: inconclusive
		}
		speed[id] = ref.KernelTime[id].Seconds() / single.KernelTime[id].Seconds()
		kernelSum += ref.KernelTime[id]
	}
	g.NonKernel = ref.PerImage - kernelSum
	if g.NonKernel < 0 {
		g.NonKernel = 0
	}
	detShare := map[marvel.KernelID]float64{
		marvel.KCH: detOpsShare(marvel.NumSVCH, marvel.DimCH),
		marvel.KCC: detOpsShare(marvel.NumSVCC, marvel.DimCC),
		marvel.KEH: detOpsShare(marvel.NumSVEH, marvel.DimEH),
		marvel.KTX: detOpsShare(marvel.NumSVTX, marvel.DimTX),
	}
	lane := amdahl.Group{}
	for _, id := range []marvel.KernelID{marvel.KCH, marvel.KCC, marvel.KEH, marvel.KTX} {
		frac := cov[id] + cov[marvel.KCD]*detShare[id]
		ported := cov[id]/speed[id] + cov[marvel.KCD]*detShare[id]/speed[marvel.KCD]
		if frac <= 0 || ported <= 0 {
			return g
		}
		lane = append(lane, amdahl.Kernel{Name: id.String() + "+det", Fraction: frac, SpeedUp: frac / ported})
		if t := sim.FromSeconds(ported * ref.PerImage.Seconds()); t > g.LaneMax {
			g.LaneMax = t
		}
	}
	est, err := amdahl.SpeedUpGrouped([]amdahl.Group{lane})
	if err != nil || est <= 0 {
		return g
	}
	g.EstSpeedUp = est
	g.Conclusive = true
	return g
}
