// Command paperbench regenerates every quantitative artifact of the
// paper's evaluation and prints paper-vs-measured comparisons:
//
//	paperbench -exp all          # everything (default)
//	paperbench -exp table1       # Table 1: kernel speed-ups + coverage
//	paperbench -exp fig6         # Figure 6: kernel times on 4 targets
//	paperbench -exp fig7         # Figure 7: app speed-ups, 1/10/50 images
//	paperbench -exp eqns         # §4.2 estimator validation
//	paperbench -exp profile      # §5.2 profiling reproduction
//	paperbench -exp naive        # §5.3 pre-optimization speed-ups
//	paperbench -exp hosts        # §5.2 reference-machine ratios
//	paperbench -exp faults       # fault injection + self-healing runtime
//	paperbench -exp serve        # multi-blade serving layer, estimator vs RR
//	paperbench -exp chaos        # blade lifecycle: seeded rolling restarts,
//	                             # crash/stall/drain, re-routing vs baseline
//	paperbench -exp fleet        # fleet-scale serving: routed blade pools +
//	                             # autoscaler vs a static single pool
//	paperbench -exp race         # run every calibration point for real on the
//	                             # work-stealing executor and report the
//	                             # estimator's error vs the wall clock
//	paperbench -quick            # reduced frames/sets for a fast pass
//	paperbench -parallel 4       # worker pool for independent runs and
//	                             # -fullsim verification
//	paperbench -json out.json    # machine-readable sidecar ("-" = stdout)
//	paperbench -trace out.json   # Chrome trace (load at ui.perfetto.dev)
//	paperbench -metrics m.json   # flat per-run metrics dump
//	paperbench -faults <spec>    # explicit fault plan (-exp faults|serve|chaos)
//	                             # (e.g. "crash:spe=0,at=5ms;blade-crash:blade=1,at=2s")
//	paperbench -faultseed 7      # seed-derived fault plan (-exp faults|serve|chaos)
//	paperbench -watchdog 250ms   # supervision watchdog override (-exp faults|serve|chaos)
//	paperbench -rate 2.5         # serve: offered load, × estimated capacity
//	paperbench -blades 4         # serve: blade-pool size
//	paperbench -deadline 250     # serve: per-request deadline, virtual ms (<0 = none)
//	paperbench -servesed 7       # serve: arrival-stream seed
//	paperbench -burst 3          # serve: mean arrival burst size
//	paperbench -fullsim          # serve: re-simulate the machine behind every
//	                             # dispatch and fail on calibration divergence
//	paperbench -workers 2        # race: executor pool width (0 = GOMAXPROCS;
//	                             # wall times move, sim/est results never do)
//	paperbench -reps 3           # race: real-execution repetitions per point
//	                             # (fastest wall time wins)
//	paperbench -pools 4          # fleet: number of routed blade pools
//	paperbench -autoscale=false  # fleet: disarm the virtual-time autoscaler
//	paperbench -flash=false      # fleet: drop the flash-crowd windows (keep
//	                             # the diurnal sinusoid)
//	paperbench -cpuprofile F     # write a pprof CPU profile of the run
//	paperbench -memprofile F     # write a pprof allocation profile of the run
//	paperbench -bench-refresh    # regenerate the committed bench/ baselines
//	paperbench -bench-dir D      # target directory for -bench-refresh
//
// Independent simulation runs fan out over -parallel workers (default:
// GOMAXPROCS); virtual-time results are identical at any setting. The
// -json file records per-experiment host wall time alongside the
// virtual-time data, so successive checkouts can track a perf trajectory.
//
// Flags are validated before anything runs: a negative -parallel, an
// unknown -exp, or a flag aimed at an experiment that is not selected
// (e.g. -faults with -exp table1) exits with status 2 and a one-line
// usage hint, instead of silently ignoring the flag.
//
// All output files are written atomically (temp file + rename), so an
// error mid-run can never leave a truncated artifact.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cellport/internal/atomicfile"
	"cellport/internal/experiments"
	"cellport/internal/fault"
	"cellport/internal/serve"
	"cellport/internal/sim"
)

// jsonEntry is one experiment's machine-readable record. WallMS is host
// time and lives beside Data, so byte-compare tooling that strips to
// Data (the CLI tests, benchdiff's equality check) ignores it by
// construction.
type jsonEntry struct {
	WallMS float64 `json:"wall_ms"`
	Data   any     `json:"data"`
}

// experimentNames lists every -exp value, in execution order.
var experimentNames = []string{
	"table1", "naive", "fig6", "fig7", "eqns", "profile", "hosts",
	"scaling", "pipeline", "overhead", "faults", "serve", "chaos", "fleet",
	"race",
}

const usageHint = "usage: paperbench [-exp all|table1|naive|fig6|fig7|eqns|profile|hosts|scaling|pipeline|overhead|faults|serve|chaos|fleet|race] [-quick] [-parallel N] [-json F] [-trace F] [-metrics F] (run with -help for all flags)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	exp         string
	quick       bool
	jsonPath    string
	seed        uint64
	parallel    int
	faultSpec   string
	faultSeed   uint64
	watchdog    string
	tracePath   string
	metricsPath string
	rate        float64
	blades      int
	deadline    float64
	serveSeed   uint64
	burst       float64
	fullSim     bool
	pools       int
	autoscale   bool
	flash       bool
	workers     int
	reps        int
	cpuProfile  string
	memProfile  string
	benchFresh  bool
	benchDir    string

	// watchdogDur is -watchdog parsed by validate (fault.ParseDuration).
	watchdogDur sim.Duration

	set map[string]bool // flags explicitly given on the command line
}

// parseFlags parses args; flag errors (including -help) return nil and
// the exit status to use.
func parseFlags(args []string, errw io.Writer) (*options, int) {
	o := &options{}
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.exp, "exp", "all", "experiment: all|table1|fig6|fig7|eqns|profile|naive|hosts|scaling|pipeline|overhead|faults|serve|chaos|fleet|race")
	fs.BoolVar(&o.quick, "quick", false, "reduced frame size and image sets")
	fs.StringVar(&o.jsonPath, "json", "", "write machine-readable results to this path (\"-\" for stdout)")
	fs.Uint64Var(&o.seed, "seed", 20070710, "workload seed")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size for independent runs and -fullsim verification (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&o.faultSpec, "faults", "", "explicit fault plan for -exp faults|serve|chaos (kind:spe=N,...;... — see internal/fault)")
	fs.Uint64Var(&o.faultSeed, "faultseed", 0, "seed for a derived fault plan when -faults is empty (0 = seed 1; -exp faults|serve|chaos)")
	fs.StringVar(&o.watchdog, "watchdog", "", "supervision watchdog timeout override, fault duration grammar e.g. 250ms (-exp faults|serve|chaos)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace (Perfetto-loadable) of every instrumented run to this path")
	fs.StringVar(&o.metricsPath, "metrics", "", "write per-run metrics JSON to this path")
	fs.Float64Var(&o.rate, "rate", 0, "serve: offered load as a multiple of estimated pool capacity (default 2)")
	fs.IntVar(&o.blades, "blades", 0, "serve: number of simulated Cell blades (default 3)")
	fs.Float64Var(&o.deadline, "deadline", 0, "serve: per-request deadline in virtual ms (0 = automatic, negative = none)")
	fs.Uint64Var(&o.serveSeed, "servesed", 0, "serve: arrival-stream seed (default 7)")
	fs.Float64Var(&o.burst, "burst", 0, "serve: mean arrival burst size (default 2)")
	fs.BoolVar(&o.fullSim, "fullsim", false, "serve: re-simulate the full machine behind every dispatch (verified dispatch)")
	fs.IntVar(&o.pools, "pools", 4, "fleet: number of routed blade pools (each of -blades blades)")
	fs.BoolVar(&o.autoscale, "autoscale", true, "fleet: arm the virtual-time autoscaler (-autoscale=false for a static fleet)")
	fs.BoolVar(&o.flash, "flash", true, "fleet: add seeded flash-crowd windows to the diurnal load model")
	fs.IntVar(&o.workers, "workers", 0, "race: executor pool width for real execution (0 = GOMAXPROCS; never affects simulated results)")
	fs.IntVar(&o.reps, "reps", 0, "race: real-execution repetitions per point, fastest wall time wins (default 3)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof allocation profile of the run to this path")
	fs.BoolVar(&o.benchFresh, "bench-refresh", false, "regenerate the committed benchmark baselines (BENCH_serve.json, BENCH_sweep.json, BENCH_fleet.json)")
	fs.StringVar(&o.benchDir, "bench-dir", "bench", "target directory for -bench-refresh")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, 0
		}
		return nil, 2
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, 0
}

// validate rejects inconsistent flag combinations before anything runs.
// It returns an error message, or "" when the options are usable.
func (o *options) validate() string {
	if o.exp != "all" {
		known := false
		for _, name := range experimentNames {
			if o.exp == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Sprintf("unknown experiment %q", o.exp)
		}
	}
	if o.parallel < 0 {
		return fmt.Sprintf("-parallel must be >= 0, got %d", o.parallel)
	}
	expSelects := func(names ...string) bool {
		if o.exp == "all" {
			return true
		}
		for _, n := range names {
			if o.exp == n {
				return true
			}
		}
		return false
	}
	for _, f := range []string{"faults", "faultseed", "watchdog"} {
		if o.set[f] && !expSelects("faults", "serve", "chaos", "fleet") {
			return fmt.Sprintf("-%s only applies to -exp faults, serve, chaos or fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"rate", "blades", "deadline", "servesed", "burst", "fullsim"} {
		if o.set[f] && !expSelects("serve", "chaos", "fleet") {
			return fmt.Sprintf("-%s only applies to -exp serve, chaos or fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"pools", "autoscale", "flash"} {
		if o.set[f] && !expSelects("fleet") {
			return fmt.Sprintf("-%s only applies to -exp fleet, not -exp %s", f, o.exp)
		}
	}
	for _, f := range []string{"workers", "reps"} {
		if o.set[f] && !expSelects("race") {
			return fmt.Sprintf("-%s only applies to -exp race, not -exp %s", f, o.exp)
		}
	}
	if o.pools < 1 {
		return fmt.Sprintf("-pools must be >= 1, got %d", o.pools)
	}
	if o.workers < 0 {
		return fmt.Sprintf("-workers must be >= 0, got %d", o.workers)
	}
	if o.reps < 0 {
		return fmt.Sprintf("-reps must be >= 0, got %d", o.reps)
	}
	if o.set["watchdog"] {
		d, err := fault.ParseDuration(o.watchdog)
		if err != nil {
			return fmt.Sprintf("bad -watchdog: %v", err)
		}
		if d <= 0 {
			return fmt.Sprintf("-watchdog must be positive, got %q", o.watchdog)
		}
		o.watchdogDur = d
	}
	if o.benchFresh {
		// The refresh runs a fixed invocation matrix; per-run flags would
		// silently not apply to it.
		for _, f := range []string{"exp", "json", "cpuprofile", "memprofile", "trace", "metrics"} {
			if o.set[f] {
				return fmt.Sprintf("-bench-refresh runs a fixed invocation set and is incompatible with -%s", f)
			}
		}
	}
	if o.set["bench-dir"] && !o.benchFresh {
		return "-bench-dir only applies with -bench-refresh"
	}
	return ""
}

// benchRefreshArgs lists the committed-baseline invocations.
// TestRunServeQuick and TestRunFleetCLI run the serve and fleet ones
// argument for argument, so the properties they assert hold for the
// committed baselines.
func benchRefreshArgs(dir string) [][]string {
	return [][]string{
		{"-quick", "-exp", "serve", "-blades", "3", "-rate", "2", "-servesed", "7",
			"-json", filepath.Join(dir, "BENCH_serve.json")},
		{"-quick", "-exp", "fig7", "-json", filepath.Join(dir, "BENCH_sweep.json")},
		{"-quick", "-exp", "fleet", "-pools", "4", "-blades", "2", "-rate", "1.5", "-servesed", "7",
			"-json", filepath.Join(dir, "BENCH_fleet.json")},
		// Worker count and rep count are pinned so the deterministic half of
		// the race baseline is reproducible anywhere; the measured_* keys
		// that do move between machines are skipped by benchdiff.
		{"-quick", "-exp", "race", "-workers", "2", "-reps", "2",
			"-json", filepath.Join(dir, "BENCH_race.json")},
	}
}

func run(args []string, out, errw io.Writer) int {
	o, status := parseFlags(args, errw)
	if o == nil {
		return status
	}
	if msg := o.validate(); msg != "" {
		fmt.Fprintf(errw, "paperbench: %s\n", msg)
		fmt.Fprintln(errw, usageHint)
		return 2
	}

	if o.benchFresh {
		if err := os.MkdirAll(o.benchDir, 0o755); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
		for _, sub := range benchRefreshArgs(o.benchDir) {
			fmt.Fprintf(out, "paperbench: refresh %s\n", strings.Join(sub, " "))
			if code := run(sub, out, errw); code != 0 {
				return code
			}
		}
		return 0
	}

	// The CPU profile streams into memory while the experiments run and is
	// committed atomically afterwards, like every other artifact.
	var cpuBuf bytes.Buffer
	if o.cpuProfile != "" {
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	code := runExperiments(o, out, errw)
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
		if err := atomicfile.WriteFile(o.cpuProfile, func(w io.Writer) error {
			_, err := w.Write(cpuBuf.Bytes())
			return err
		}); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	if o.memProfile != "" {
		runtime.GC() // settle the heap so the allocs profile is complete
		if err := atomicfile.WriteFile(o.memProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	return code
}

func runExperiments(o *options, out, errw io.Writer) int {
	cfg := experiments.Config{Quick: o.quick, Seed: o.seed, Parallel: o.parallel,
		FaultSpec: o.faultSpec, FaultSeed: o.faultSeed, Watchdog: o.watchdogDur,
		Serve: experiments.ServeConfig{
			Blades:     o.blades,
			Rate:       o.rate,
			Burst:      o.burst,
			DeadlineMS: o.deadline,
			Seed:       o.serveSeed,
		},
		Fleet: experiments.FleetConfig{
			Pools:     o.pools,
			Autoscale: o.autoscale,
			Flash:     o.flash,
		},
		Race: experiments.RaceConfig{
			Workers: o.workers,
			Reps:    o.reps,
		},
		FullSim: o.fullSim,
	}
	if o.tracePath != "" || o.metricsPath != "" {
		cfg.Collect = &experiments.Collector{}
	}
	tables := o.jsonPath != "-" // "-" routes JSON to stdout instead of tables
	jsonDoc := map[string]jsonEntry{}
	start := time.Now()
	failed := false
	usageErr := false

	runExp := func(name string, fn func() (any, error)) {
		if failed || (o.exp != "all" && o.exp != name) {
			return
		}
		if tables {
			fmt.Fprintf(out, "==== %s ", name)
			for i := len(name); i < 68; i++ {
				fmt.Fprint(out, "=")
			}
			fmt.Fprintln(out)
		}
		t0 := time.Now()
		data, err := fn()
		if err != nil {
			fmt.Fprintf(errw, "paperbench: %s: %v\n", name, err)
			// A degenerate serve configuration is a usage error, not a
			// failed run: exit 2 with the hint, matching flag validation.
			var ce *serve.ConfigError
			if errors.As(err, &ce) {
				fmt.Fprintln(errw, usageHint)
				usageErr = true
			}
			failed = true
			return
		}
		jsonDoc[name] = jsonEntry{WallMS: float64(time.Since(t0).Microseconds()) / 1000, Data: data}
		if tables {
			fmt.Fprintln(out)
		}
	}

	render := func(draw func()) {
		if tables {
			draw()
		}
	}

	runExp("table1", func() (any, error) {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderTable1(out, rows) })
		return rows, nil
	})
	runExp("naive", func() (any, error) {
		rows, err := experiments.NaiveSpeedups(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderNaive(out, rows) })
		return rows, nil
	})
	runExp("fig6", func() (any, error) {
		rows, err := experiments.Fig6(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderFig6(out, rows) })
		return rows, nil
	})
	runExp("fig7", func() (any, error) {
		r, err := experiments.Fig7(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderFig7(out, r) })
		return r, nil
	})
	runExp("eqns", func() (any, error) {
		r, err := experiments.Eqns(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderEqns(out, r) })
		return r, nil
	})
	runExp("profile", func() (any, error) {
		r, err := experiments.ProfileExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderProfile(out, r) })
		return r, nil
	})
	runExp("hosts", func() (any, error) {
		r, err := experiments.HostsExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderHosts(out, r) })
		return r, nil
	})
	runExp("scaling", func() (any, error) {
		rows, err := experiments.Scaling(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderScaling(out, rows) })
		return rows, nil
	})
	runExp("pipeline", func() (any, error) {
		rows, err := experiments.Pipeline(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderPipeline(out, rows) })
		return rows, nil
	})
	runExp("overhead", func() (any, error) {
		rows, err := experiments.Overhead(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderOverhead(out, rows) })
		return rows, nil
	})
	runExp("faults", func() (any, error) {
		r, err := experiments.FaultsExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderFaults(out, r) })
		return r, nil
	})
	runExp("serve", func() (any, error) {
		r, err := experiments.ServeExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderServe(out, r) })
		return r, nil
	})
	runExp("chaos", func() (any, error) {
		r, err := experiments.ChaosExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderChaos(out, r) })
		return r, nil
	})
	runExp("fleet", func() (any, error) {
		r, err := experiments.FleetExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderFleet(out, r) })
		return r, nil
	})
	runExp("race", func() (any, error) {
		r, err := experiments.RaceExp(cfg)
		if err != nil {
			return nil, err
		}
		render(func() { experiments.RenderRace(out, r) })
		return r, nil
	})

	if failed {
		if usageErr {
			return 2
		}
		return 1
	}

	if o.tracePath != "" {
		if err := atomicfile.WriteFile(o.tracePath, cfg.Collect.WriteChromeTrace); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}
	if o.metricsPath != "" {
		if err := atomicfile.WriteFile(o.metricsPath, cfg.Collect.WriteMetricsJSON); err != nil {
			fmt.Fprintf(errw, "paperbench: %v\n", err)
			return 1
		}
	}

	if o.jsonPath == "" {
		return 0
	}
	doc := struct {
		Config struct {
			Quick    bool   `json:"quick"`
			Seed     uint64 `json:"seed"`
			Parallel int    `json:"parallel"`
			MaxProcs int    `json:"gomaxprocs"`
		} `json:"config"`
		TotalWallMS float64              `json:"total_wall_ms"`
		Experiments map[string]jsonEntry `json:"experiments"`
	}{TotalWallMS: float64(time.Since(start).Microseconds()) / 1000, Experiments: jsonDoc}
	doc.Config.Quick = o.quick
	doc.Config.Seed = o.seed
	doc.Config.Parallel = o.parallel
	doc.Config.MaxProcs = runtime.GOMAXPROCS(0)

	writeDoc := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	var err error
	if o.jsonPath == "-" {
		err = writeDoc(out)
	} else {
		err = atomicfile.WriteFile(o.jsonPath, writeDoc)
	}
	if err != nil {
		fmt.Fprintf(errw, "paperbench: %v\n", err)
		return 1
	}
	return 0
}
