package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// testSizes shrinks every workload to quick frames and a small fleet.
var testSizes = sizes{quick: true, pools: 4, blades: 2, requests: 2000}

// firstDigest sets a fresh workload up and returns its first pass's
// virtual-time digest.
func firstDigest(t *testing.T, name string, seed uint64) (string, workload) {
	t.Helper()
	w, err := newWorkload(name, seed, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	tr := newTracer(false, "test")
	if err := w.setup(tr); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	it, err := w.iterate(tr, false)
	if err != nil {
		t.Fatalf("%s iterate: %v", name, err)
	}
	if it.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed their checks", name, it.failed, it.attempted)
	}
	return it.digest, w
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range []string{"fleet", "paper", "race"} {
		a, _ := firstDigest(t, name, 7)
		b, _ := firstDigest(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
	}
}

func TestFleetSeedChangesArrivals(t *testing.T) {
	d1, w1 := firstDigest(t, "fleet", 1)
	d2, w2 := firstDigest(t, "fleet", 2)
	if w1.inputsDigest() == w2.inputsDigest() {
		t.Errorf("seeds 1 and 2 gave the same fleet inputs digest %s", w1.inputsDigest())
	}
	if d1 == d2 {
		t.Errorf("seeds 1 and 2 gave the same fleet report digest %s", d1)
	}
}

// TestMeasureReportsEveryMetric runs each workload through both modes
// with a tiny budget: the untraced run reports every end-to-end metric,
// non-zero; the traced run reports every per-layer metric, and its traced
// and untraced passes agree on the virtual-time digest.
func TestMeasureReportsEveryMetric(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, name := range []string{"fleet", "paper", "race"} {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, 3, testSizes)
			if err != nil {
				t.Fatal(err)
			}
			res, digest, err := measure(w, name, 3, time.Millisecond, traced, t.TempDir())
			w.close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || digest == "" {
				t.Fatalf("%s traced=%v: correct %v, %d/%d failed, digest %q", name, traced, res.Correct, res.Failed, res.Attempted, digest)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := names; len(got) != 3 || got[0] != "fleet" || got[1] != "paper" || got[2] != "race" {
		t.Errorf("workloads %v, want fleet, paper, race", got)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perLayer %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(true, "test")
	tr.spans = []span{
		{Name: "bench.iteration", Start: 0, End: 10, Parent: -1},
		{Name: "serve.run", Start: 1, End: 7, Parent: 0},
		{Name: "report.marshal", Start: 7, End: 9, Parent: 0},
		{Name: "sim.run_ported", Start: 2, End: 5, Parent: 1},
	}
	self := tr.selfTimesFrom(0)
	want := map[string]time.Duration{"bench": 2, "serve": 3, "report": 2, "sim": 3}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
	if self := tr.selfTimesFrom(1); self["serve"] != 3 || self["bench"] != 0 {
		t.Errorf("selfTimesFrom(1) = %v, want serve 3 and no bench", self)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cellport/internal/features.(*CorrAcc).AccumulateCorrelogram": "features",
		"cellport/internal/sim.(*Engine).Run":                         "sim",
		"cellport/internal/exec.Go[...].func1":                        "exec",
		"encoding/json.(*encodeState).marshal":                        "json",
		"runtime.mallocgc":                                            "runtime",
		"main.(*fleet).iterate":                                       "other",
		"sort.Slice":                                                  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sum := sha256.Sum256(nil)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sum = sha256.Sum256(sum[:])
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1 (%v)", total, shares)
	}
	if shares["other"] < 0.5 {
		t.Errorf("hashing loop attributed %v to other, want most samples (%v)", shares["other"], shares)
	}
}
