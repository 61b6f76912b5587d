// Command perfbench is cellport's benchmark: one command that runs a named
// workload (fleet, paper or race), checks its outputs, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as one JSON object on the last line of standard output.
//
//	perfbench --workload fleet --seed 1 --seconds 10 --trace 0
//
// Every layer is timed from outside: the benchmark's own code opens a
// host-clock span around each call into a module's public API. The
// metric definitions, the layer-to-metric mapping and the reason for each
// workload are in README.md beside this file.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the width of every worker pool the workloads configure:
// calibration Parallel, serve Shards and exec Workers. It matches the
// two CPUs of the reference host.
const workers = 2

// setupReps is how many times each run builds its workload from scratch;
// setup_s is the median.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iteration is the outcome of one measured pass of a workload.
type iteration struct {
	digest    string // sha256 of the pass's virtual-time output
	attempted int    // operations attempted in the pass
	failed    int    // operations whose output checks failed
}

// virtualMetrics are the end-to-end metrics in the simulated clock
// domain; they repeat exactly for a given seed.
type virtualMetrics struct {
	goodput                    float64 // share of operations completed correctly and on time
	latencyP50MS, latencyP99MS float64 // virtual milliseconds
	table1Err, eqnsErr         float64
}

// workload is one benchmark scenario. setup builds everything the
// measured phase needs from scratch (artifacts, calibration) and release
// drops it again; iterate runs one measured pass. virtual and layers
// report after the measured phase; layers adds every per-layer metric
// the workload exercises.
type workload interface {
	setup(tr *tracer) error
	release()
	iterate(tr *tracer, traced bool) (iteration, error)
	inputsDigest() string
	virtual() (virtualMetrics, error)
	layers(tr *tracer, from int, add func(name string, v float64))
	close()
}

// sizes shrinks the workloads for the package tests; the benchmark runs
// fullSizes.
type sizes struct {
	quick         bool // 352×96 frames and the experiments' quick sets
	pools, blades int
	requests      int
}

var fullSizes = sizes{pools: 64, blades: 4, requests: 100000}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "fleet":
		return newFleet(seed, sz), nil
	case "paper":
		return newPaper(seed, sz), nil
	case "race":
		return newRace(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet, paper or race)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "", "workload: fleet, paper or race")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in host seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the Chrome trace and CPU profile of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(errw, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	w, err := newWorkload(*name, *seed, fullSizes)
	if err != nil {
		fmt.Fprintf(errw, "perfbench: %v\n", err)
		return 2
	}
	defer w.close()
	res, digest, err := measure(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintf(errw, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(out, "perfbench: %s seed=%d digest vt=%s inputs=%s\n", *name, *seed, digest, w.inputsDigest())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(errw, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(errw, "perfbench: %s: %d of %d operations failed their output checks\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// phase runs measured passes until budget has elapsed (at least one) and
// returns each pass's host wall time. Every pass must reproduce digest
// (set from the first pass when empty).
func phase(w workload, tr *tracer, traced bool, budget time.Duration, digest *string, res *result) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < budget {
		end := tr.begin("bench.iteration")
		t0 := time.Now()
		it, err := w.iterate(tr, traced)
		walls = append(walls, time.Since(t0))
		end()
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(it.attempted)
		res.Failed += int64(it.failed)
		if *digest == "" {
			*digest = it.digest
		} else if it.digest != *digest {
			// A pass whose virtual-time output differs from the first
			// pass's is wrong as a whole.
			res.Failed += int64(it.attempted - it.failed)
		}
	}
	return walls, nil
}

// measure sets the workload up setupReps times, runs the measured phase
// and assembles the result. Untraced, the phase is one untraced run and
// the metrics are the end-to-end set. Traced, the budget is split between
// an untraced run (the overhead baseline) and a traced, CPU-profiled
// run, both of which must produce the same virtual-time digest; the
// metrics are the per-layer set.
func measure(w workload, name string, seed uint64, budget time.Duration, traced bool, outDir string) (*result, string, error) {
	tr := newTracer(traced, fmt.Sprintf("%s/seed=%d", name, seed))
	res := &result{Metrics: map[string]metric{}}

	var m0, mSetup, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		// Each build starts from a collected heap, so the previous build's
		// artifacts leave it no GC work.
		w.release()
		runtime.GC()
		end := tr.begin("bench.setup")
		t0 := time.Now()
		err := w.setup(tr)
		setups = append(setups, time.Since(t0))
		end()
		if err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
	}
	runtime.ReadMemStats(&mSetup)

	digest := ""
	if !traced {
		walls, err := phase(w, tr, false, budget, &digest, res)
		if err != nil {
			return nil, "", err
		}
		vm, err := w.virtual()
		if err != nil {
			return nil, "", err
		}
		res.Correct = res.Failed == 0
		put := func(n string, v float64, unit string) { res.Metrics[n] = metric{Value: v, Unit: unit} }
		put("setup_s", median(setups).Seconds(), "s")
		put("wall_s", median(walls).Seconds(), "s")
		put("goodput", vm.goodput, "ratio")
		put("latency_p50_ms", vm.latencyP50MS, "vms")
		put("latency_p99_ms", vm.latencyP99MS, "vms")
		put("table1_err", vm.table1Err, "ratio")
		put("eqns_err", vm.eqnsErr, "ratio")
		return res, digest, nil
	}

	tr.on = false
	plain, err := phase(w, tr, false, budget/2, &digest, res)
	if err != nil {
		return nil, "", err
	}
	tr.on = true
	from := len(tr.spans)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, "", err
	}
	runtime.ReadMemStats(&m1)
	tracedWalls, err := phase(w, tr, true, budget/2, &digest, res)
	runtime.ReadMemStats(&m2)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, "", err
	}
	res.Correct = res.Failed == 0

	values := map[string]float64{}
	for _, m := range perLayer {
		values[m.name] = 0
	}
	add := func(n string, v float64) {
		if _, ok := values[n]; !ok {
			panic("perfbench: per-layer metric " + n + " is not declared in perLayer")
		}
		values[n] = v
	}
	w.layers(tr, from, add)
	iters := float64(len(tracedWalls))
	add("trace.overhead_s", median(tracedWalls).Seconds()-median(plain).Seconds())
	add("trace.spans_per_iter", float64(len(tr.spans)-from)/iters)
	for layer, d := range tr.selfTimesFrom(from) {
		if n := "self." + layer + "_s"; hasLayerMetric(n) {
			add(n, d.Seconds()/iters)
		}
	}
	// GC cycles the runtime started itself; the collections forced before
	// each set-up are excluded.
	gcs := func(a, b *runtime.MemStats) float64 {
		return float64((b.NumGC - b.NumForcedGC) - (a.NumGC - a.NumForcedGC))
	}
	add("runtime.setup_gc_cycles", gcs(&m0, &mSetup))
	add("runtime.setup_alloc_mb", float64(mSetup.TotalAlloc-m0.TotalAlloc)/(1<<20))
	add("runtime.run_gc_cycles", gcs(&m1, &m2)/iters)
	add("runtime.run_alloc_mb", float64(m2.TotalAlloc-m1.TotalAlloc)/(1<<20)/iters)
	add("runtime.peak_rss_mb", peakRSSMB())
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, "", err
	}
	for mod, s := range shares {
		add("cpu."+mod+"_share", s)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}

	if err := writeArtifacts(outDir, name, seed, tr, prof.Bytes()); err != nil {
		return nil, "", err
	}
	return res, digest, nil
}

// writeArtifacts saves the traced run's Chrome trace and CPU profile.
func writeArtifacts(dir, name string, seed uint64, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "perfbench/"+name); err != nil {
		return err
	}
	if err := os.WriteFile(base+"-trace.json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", prof, 0o644)
}

func median[T ~int64 | ~float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method,
// the rule serve.Report uses for its latency percentiles.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// digestOf hashes a JSON encoding of v.
func digestOf(v any) (string, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b, nil
}

// mix derives an independent nonzero sub-seed from the workload seed
// (splitmix64 finalizer over seed+salt).
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}
