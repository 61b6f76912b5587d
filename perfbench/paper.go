package main

import (
	"fmt"
	"os"

	"cellport/internal/cost"
	"cellport/internal/experiments"
	"cellport/internal/marvel"
)

// figure is one paper artifact: a figure function of experiments and the
// check its output must pass.
type figure struct {
	name  string
	run   func(experiments.Config) (any, error)
	check func(any) error
}

// figures lists the paper artifacts in paperbench's order.
var figures = []figure{
	{"table1", func(c experiments.Config) (any, error) { return experiments.Table1(c) }, func(v any) error {
		return checkSpeedups(len(v.([]experiments.Table1Row)), func(i int) float64 { return v.([]experiments.Table1Row)[i].SpeedUp })
	}},
	{"naive", func(c experiments.Config) (any, error) { return experiments.NaiveSpeedups(c) }, func(v any) error {
		return checkSpeedups(len(v.([]experiments.NaiveRow)), func(i int) float64 { return v.([]experiments.NaiveRow)[i].SpeedUp })
	}},
	{"fig6", func(c experiments.Config) (any, error) { return experiments.Fig6(c) }, func(v any) error {
		return checkSpeedups(len(v.([]experiments.Fig6Row)), func(i int) float64 { return v.([]experiments.Fig6Row)[i].SPEvPPE })
	}},
	{"fig7", func(c experiments.Config) (any, error) { return experiments.Fig7(c) }, func(v any) error {
		r := v.(*experiments.Fig7Result)
		for _, cc := range experiments.CellConfigs {
			if len(r.CellTotal[cc]) != len(r.Sizes) {
				return fmt.Errorf("fig7: %s has %d of %d set sizes", cc, len(r.CellTotal[cc]), len(r.Sizes))
			}
		}
		return nil
	}},
	{"eqns", func(c experiments.Config) (any, error) { return experiments.Eqns(c) }, func(v any) error {
		if n := len(v.(*experiments.EqnsResult).Scenarios); n == 0 {
			return fmt.Errorf("eqns: no scenarios")
		}
		return nil
	}},
	{"profile", func(c experiments.Config) (any, error) { return experiments.ProfileExp(c) }, func(v any) error {
		if r := v.(*experiments.ProfileResult); r.CoverageSet <= 0 || r.CoverageSet > 1 {
			return fmt.Errorf("profile: coverage %v outside (0, 1]", r.CoverageSet)
		}
		return nil
	}},
	{"hosts", func(c experiments.Config) (any, error) { return experiments.HostsExp(c) }, nil},
	{"scaling", func(c experiments.Config) (any, error) { return experiments.Scaling(c) }, func(v any) error {
		for _, r := range v.([]experiments.ScalingRow) {
			if !r.Matches {
				return fmt.Errorf("scaling: %s on %d SPEs does not match the reference", r.Kernel, r.NSPEs)
			}
		}
		return nil
	}},
	{"pipeline", func(c experiments.Config) (any, error) { return experiments.Pipeline(c) }, nil},
	{"overhead", func(c experiments.Config) (any, error) { return experiments.Overhead(c) }, nil},
	{"faults", func(c experiments.Config) (any, error) { return experiments.FaultsExp(c) }, func(v any) error {
		r := v.(*experiments.FaultsResult)
		if r.ValidationErrors != 0 || !r.Deterministic {
			return fmt.Errorf("faults: %d validation errors, deterministic replay %v", r.ValidationErrors, r.Deterministic)
		}
		return nil
	}},
}

func checkSpeedups(n int, speedup func(int) float64) error {
	if n != len(marvel.KernelIDs) {
		return fmt.Errorf("%d rows, want one per kernel (%d)", n, len(marvel.KernelIDs))
	}
	for i := 0; i < n; i++ {
		if s := speedup(i); !(s > 0) {
			return fmt.Errorf("row %d: speed-up %v", i, s)
		}
	}
	return nil
}

// paper regenerates every paper artifact at full size by calling the
// figure functions. Set-up builds the artifacts the figures read into a
// fresh cache; each measured pass calls all figures and encodes their
// results.
type paper struct {
	sz      sizes
	cfg     experiments.Config
	results []any
	bytes   int
	cache   cacheUse
}

func newPaper(seed uint64, sz sizes) *paper {
	return &paper{sz: sz, cfg: experiments.Config{Quick: sz.quick, Seed: mix(seed, 3), Parallel: workers}}
}

func (p *paper) release() { p.cfg.Artifacts, p.results = nil, nil }

func (p *paper) setup(tr *tracer) error {
	cache := marvel.NewArtifactCache()
	end := tr.begin("marvel.artifacts")
	defer end()
	if _, err := cache.ModelSet(p.cfg.Seed); err != nil {
		return err
	}
	// Reference runs of every host at one image, and of the PPE at the
	// profile and pipeline set sizes; image sets at every size the
	// figures simulate.
	for _, host := range []func() *cost.Model{cost.NewPPE, cost.NewDesktop, cost.NewLaptop} {
		if _, err := cache.Reference(host(), p.cfg.Workload(1)); err != nil {
			return err
		}
	}
	big, pipe, sets := 50, 8, []int{1, 2, 10, 50}
	if p.sz.quick {
		big, pipe, sets = 8, 4, []int{1, 2, 4, 8}
	}
	for _, n := range []int{big, pipe} {
		if _, err := cache.Reference(cost.NewPPE(), p.cfg.Workload(n)); err != nil {
			return err
		}
	}
	for _, n := range sets {
		cache.Images(p.cfg.Workload(n))
	}
	p.cfg.Artifacts = cache
	return nil
}

func (p *paper) inputsDigest() string {
	d, _, _ := digestOf(struct {
		Seed  uint64
		Quick bool
	}{p.cfg.Seed, p.cfg.Quick})
	return d
}

func (p *paper) iterate(tr *tracer, _ bool) (iteration, error) {
	defer p.cache.track(p.cfg.Artifacts)()
	it := iteration{attempted: len(figures)}
	p.results = make([]any, len(figures))
	for i, f := range figures {
		end := tr.begin("experiments." + f.name)
		v, err := f.run(p.cfg)
		end()
		if err == nil && f.check != nil {
			err = f.check(v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: paper: %s: %v\n", f.name, err)
			it.failed++
			continue
		}
		p.results[i] = v
	}
	end := tr.begin("report.marshal")
	digest, b, err := digestOf(p.results)
	end()
	if err != nil {
		return iteration{}, err
	}
	it.digest, p.bytes = digest, len(b)
	return it, nil
}

func (p *paper) virtual() (virtualMetrics, error) {
	rows, ok1 := p.results[0].([]experiments.Table1Row)
	fig7, ok2 := p.results[3].(*experiments.Fig7Result)
	eqns, ok3 := p.results[4].(*experiments.EqnsResult)
	if !ok1 || !ok2 || !ok3 {
		return virtualMetrics{}, fmt.Errorf("paper: table1, fig7 or eqns produced no result")
	}
	passed := 0
	for _, r := range p.results {
		if r != nil {
			passed++
		}
	}
	// The paper workload's latencies are Figure 7's: the simulated
	// whole-application time of every Cell configuration and set size.
	var totals []float64
	for _, cc := range experiments.CellConfigs {
		for _, n := range fig7.Sizes {
			totals = append(totals, fig7.CellTotal[cc][n].Seconds()*1e3)
		}
	}
	return virtualMetrics{
		goodput:      float64(passed) / float64(len(figures)),
		latencyP50MS: nearestRank(totals, 0.5),
		latencyP99MS: nearestRank(totals, 0.99),
		table1Err:    table1Err(rows),
		eqnsErr:      eqnsErr(eqns),
	}, nil
}

func (p *paper) layers(tr *tracer, from int, add func(string, float64)) {
	add("marvel.artifacts_s", medianSeconds(tr, 0, "marvel.artifacts"))
	p.cache.report(add)
	for _, f := range figures {
		add("experiments."+f.name+"_s", medianSeconds(tr, from, "experiments."+f.name))
	}
	add("report.marshal_s", medianSeconds(tr, from, "report.marshal"))
	add("report.bytes", float64(p.bytes))
}

func (p *paper) close() {}
