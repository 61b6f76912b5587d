package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFlagValidationMatrix pins the CLI contract: inconsistent flag
// combinations exit with status 2 and a one-line usage hint before any
// simulation runs, and valid combinations pass validation.
func TestFlagValidationMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		status  int
		errWant string // substring of stderr; "" means no error expected
	}{
		{"negative parallel", []string{"-parallel", "-2", "-exp", "eqns"}, 2, "-parallel must be >= 0"},
		{"unknown exp", []string{"-exp", "fig9"}, 2, `unknown experiment "fig9"`},
		{"unparseable flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"faults flag with wrong exp", []string{"-exp", "table1", "-faults", "crash:spe=0,at=5ms"}, 2, "-faults only applies"},
		{"faultseed with wrong exp", []string{"-exp", "eqns", "-faultseed", "3"}, 2, "-faultseed only applies"},
		{"rate with wrong exp", []string{"-exp", "faults", "-rate", "2"}, 2, "-rate only applies"},
		{"blades with wrong exp", []string{"-exp", "fig6", "-blades", "4"}, 2, "-blades only applies"},
		{"deadline with wrong exp", []string{"-exp", "profile", "-deadline", "100"}, 2, "-deadline only applies"},
		{"servesed with wrong exp", []string{"-exp", "hosts", "-servesed", "9"}, 2, "-servesed only applies"},
		{"burst with wrong exp", []string{"-exp", "overhead", "-burst", "3"}, 2, "-burst only applies"},
		{"fullsim with wrong exp", []string{"-exp", "eqns", "-fullsim"}, 2, "-fullsim only applies"},
		{"watchdog with wrong exp", []string{"-exp", "table1", "-watchdog", "250ms"}, 2, "-watchdog only applies"},
		{"watchdog bad duration", []string{"-exp", "faults", "-watchdog", "soon"}, 2, "bad -watchdog"},
		{"watchdog zero", []string{"-exp", "faults", "-watchdog", "0ms"}, 2, "-watchdog must be positive"},
		{"serve flags with chaos exp", []string{"-exp", "chaos", "-rate", "2", "-blades", "8"}, -1, ""},
		{"faults flag with chaos exp", []string{"-exp", "chaos", "-faults", "blade-crash:blade=0,at=5ms"}, -1, ""},
		{"watchdog with faults exp", []string{"-exp", "faults", "-watchdog", "250ms"}, -1, ""},
		{"watchdog with chaos exp", []string{"-exp", "chaos", "-watchdog", "1s"}, -1, ""},
		{"bench-refresh with exp", []string{"-bench-refresh", "-exp", "serve"}, 2, "incompatible with -exp"},
		{"bench-refresh with json", []string{"-bench-refresh", "-json", "x.json"}, 2, "incompatible with -json"},
		{"bench-refresh with profile", []string{"-bench-refresh", "-cpuprofile", "cpu.pb"}, 2, "incompatible with -cpuprofile"},
		{"bench-dir without refresh", []string{"-bench-dir", "bench"}, 2, "-bench-dir only applies"},
		{"faults flag with faults exp", []string{"-exp", "faults", "-faults", "crash:spe=0,at=5ms"}, -1, ""},
		{"faults flag with serve exp", []string{"-exp", "serve", "-faultseed", "3"}, -1, ""},
		{"serve flags with serve exp", []string{"-exp", "serve", "-rate", "2", "-blades", "2", "-deadline", "-1", "-servesed", "9", "-burst", "1"}, -1, ""},
		{"fullsim with serve exp", []string{"-exp", "serve", "-parallel", "8", "-fullsim"}, -1, ""},
		{"pools with wrong exp", []string{"-exp", "serve", "-pools", "4"}, 2, "-pools only applies"},
		{"autoscale with wrong exp", []string{"-exp", "chaos", "-autoscale=false"}, 2, "-autoscale only applies"},
		{"flash with wrong exp", []string{"-exp", "table1", "-flash=false"}, 2, "-flash only applies"},
		{"zero pools", []string{"-exp", "fleet", "-pools", "0"}, 2, "-pools must be >= 1"},
		{"negative pools", []string{"-exp", "fleet", "-pools", "-3"}, 2, "-pools must be >= 1"},
		{"fleet flags with fleet exp", []string{"-exp", "fleet", "-pools", "4", "-autoscale=false", "-flash=false"}, -1, ""},
		{"serve flags with fleet exp", []string{"-exp", "fleet", "-rate", "1.5", "-blades", "2"}, -1, ""},
		{"faults flag with fleet exp", []string{"-exp", "fleet", "-faults", "blade-crash:blade=0,at=5ms"}, -1, ""},
		{"workers with wrong exp", []string{"-exp", "serve", "-workers", "2"}, 2, "-workers only applies"},
		{"reps with wrong exp", []string{"-exp", "fig7", "-reps", "3"}, 2, "-reps only applies"},
		{"negative workers", []string{"-exp", "race", "-workers", "-1"}, 2, "-workers must be >= 0"},
		{"negative reps", []string{"-exp", "race", "-reps", "-2"}, 2, "-reps must be >= 0"},
		{"race flags with race exp", []string{"-exp", "race", "-workers", "2", "-reps", "2"}, -1, ""},
		{"race flags with all", []string{"-workers", "4"}, -1, ""},
		{"serve flags with all", []string{"-rate", "2"}, -1, ""},
		{"bench-refresh alone", []string{"-bench-refresh", "-bench-dir", "fresh"}, -1, ""},
		{"profiles with any exp", []string{"-exp", "eqns", "-cpuprofile", "cpu.pb", "-memprofile", "mem.pb"}, -1, ""},
		{"plain quick eqns", []string{"-quick", "-exp", "eqns"}, -1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errw bytes.Buffer
			o, status := parseFlags(tc.args, &errw)
			if o == nil {
				if tc.status != 2 {
					t.Fatalf("parseFlags failed unexpectedly: %s", errw.String())
				}
				if status != 2 {
					t.Fatalf("parse failure returned status %d, want 2", status)
				}
				if !strings.Contains(errw.String(), tc.errWant) {
					t.Fatalf("stderr %q does not contain %q", errw.String(), tc.errWant)
				}
				return
			}
			msg := o.validate()
			if tc.status == 2 {
				if msg == "" {
					t.Fatalf("validate accepted %v, want rejection", tc.args)
				}
				if !strings.Contains(msg, tc.errWant) {
					t.Fatalf("message %q does not contain %q", msg, tc.errWant)
				}
			} else if msg != "" {
				t.Fatalf("validate rejected %v: %s", tc.args, msg)
			}
		})
	}
}

// TestRunRejectsBeforeExecuting checks the full run() path: a rejected
// flag matrix entry must exit 2 with the usage hint and produce no
// experiment output.
func TestRunRejectsBeforeExecuting(t *testing.T) {
	var out, errw bytes.Buffer
	if status := run([]string{"-exp", "table1", "-rate", "2"}, &out, &errw); status != 2 {
		t.Fatalf("status %d, want 2 (stderr: %s)", status, errw.String())
	}
	if !strings.Contains(errw.String(), usageHint) {
		t.Fatalf("stderr missing usage hint: %s", errw.String())
	}
	if out.Len() != 0 {
		t.Fatalf("rejected invocation still produced output: %s", out.String())
	}
}

// TestRunServeQuick smoke-tests the serve experiment end to end through
// the CLI with the BENCH_serve.json baseline's arguments: the JSON
// sidecar carries every report field for both policies, each policy's
// six-term ledger conserves, and the data section is identical at
// -parallel 1 and -parallel 8.
func TestRunServeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	args := []string{"-quick", "-exp", "serve", "-blades", "3", "-rate", "2", "-servesed", "7"}
	out, seq := invokeJSON(t, "seq", append(args, "-parallel", "1")...)
	if !strings.Contains(out, "Serving layer") {
		t.Fatalf("table output missing serve render: %s", out)
	}
	var data map[string]map[string]json.RawMessage
	if err := json.Unmarshal(seq["serve"], &data); err != nil {
		t.Fatalf("serve data did not parse: %v", err)
	}
	for _, policy := range []string{"estimator", "round_robin"} {
		rep, ok := data[policy]
		if !ok {
			t.Fatalf("serve data missing %s: %s", policy, seq["serve"])
		}
		for _, field := range []string{"policy", "offered_rps", "achieved_rps", "served", "late",
			"shed_rejected", "shed_expired", "batches", "latency_p50_fs", "latency_p95_fs",
			"latency_p99_fs", "per_blade"} {
			if _, ok := rep[field]; !ok {
				t.Fatalf("%s report missing %q: %s", policy, field, seq["serve"])
			}
		}
	}
	var ledgers map[string]ledger
	if err := json.Unmarshal(seq["serve"], &ledgers); err != nil {
		t.Fatalf("serve data did not parse: %v", err)
	}
	ledgers["estimator"].check(t, "estimator")
	ledgers["round_robin"].check(t, "round_robin")

	_, par := invokeJSON(t, "par", append(args, "-parallel", "8")...)
	if string(par["serve"]) != string(seq["serve"]) {
		t.Fatalf("-parallel 8 changed the serve report:\n got %s\nwant %s", par["serve"], seq["serve"])
	}
}

// TestRunRejectsDegenerateServeConfig checks a degenerate serve value
// that only the library-level Config.Validate can catch (a sub-unity
// -burst) exits 2 with the usage hint instead of reporting a failed run.
func TestRunRejectsDegenerateServeConfig(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "serve", "-burst", "0.5"}
	if status := run(args, &out, &errw); status != 2 {
		t.Fatalf("status %d, want 2 (stderr: %s)", status, errw.String())
	}
	if !strings.Contains(errw.String(), "Burst") {
		t.Fatalf("stderr does not name the rejected field: %s", errw.String())
	}
	if !strings.Contains(errw.String(), usageHint) {
		t.Fatalf("stderr missing usage hint: %s", errw.String())
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// experimentData decodes a sidecar and returns each experiment's data
// section (wall times stripped), for comparing runs that must agree on
// results but not on host timing.
func experimentData(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var doc struct {
		Experiments map[string]struct {
			Data json.RawMessage `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("sidecar did not parse: %v", err)
	}
	out := map[string]json.RawMessage{}
	for name, e := range doc.Experiments {
		out[name] = e.Data
	}
	return out
}

// invokeJSON runs paperbench with args plus a -json sidecar in a temp
// directory, fails the test on a non-zero exit, and returns the table
// output and each experiment's data section.
func invokeJSON(t *testing.T, name string, args ...string) (string, map[string]json.RawMessage) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), name+".json")
	var out, errw bytes.Buffer
	if status := run(append(args, "-json", jsonPath), &out, &errw); status != 0 {
		t.Fatalf("%s: status %d, stderr: %s", name, status, errw.String())
	}
	return out.String(), experimentData(t, readFileT(t, jsonPath))
}

// ledger is the six-term shed ledger every serve report carries.
type ledger struct {
	Requests      int `json:"requests"`
	Served        int `json:"served"`
	ShedRejected  int `json:"shed_rejected"`
	ShedExpired   int `json:"shed_expired"`
	ShedRerouted  int `json:"shed_rerouted"`
	ShedExhausted int `json:"shed_exhausted"`
	ShedGlobal    int `json:"shed_global"`
}

// check asserts the ledger conserves: every request is served or shed
// under exactly one reason.
func (l ledger) check(t *testing.T, name string) {
	t.Helper()
	if l.Requests == 0 {
		t.Fatalf("%s ledger carries no requests", name)
	}
	sum := l.Served + l.ShedRejected + l.ShedExpired + l.ShedRerouted + l.ShedExhausted + l.ShedGlobal
	if sum != l.Requests {
		t.Fatalf("%s ledger leaks: %+v sums to %d, want %d requests", name, l, sum, l.Requests)
	}
}

// TestRunFullSimParallelCLI checks the -fullsim plumbing end to end:
// verified dispatch, its re-simulations fanned out over -parallel 1 and
// -parallel 8 workers, must produce the same experiment data through the
// CLI as the unverified run.
func TestRunFullSimParallelCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	args := []string{"-quick", "-exp", "serve", "-rate", "2", "-blades", "2", "-servesed", "7"}
	_, plain := invokeJSON(t, "plain", args...)
	for _, workers := range []string{"1", "8"} {
		_, got := invokeJSON(t, "fullsim-parallel"+workers, append(args, "-fullsim", "-parallel", workers)...)
		if string(got["serve"]) != string(plain["serve"]) {
			t.Fatalf("-fullsim -parallel %s diverged from the unverified run:\n got %s\nwant %s",
				workers, got["serve"], plain["serve"])
		}
	}
}

// TestRunChaosCLI checks the chaos experiment end to end with a seeded
// fault plan: the blade-lifecycle schedule must fire through the CLI,
// both the baseline and the chaos run must conserve their six-term
// ledgers, and the goodput the chaos run retains lies in (0, 1].
func TestRunChaosCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	_, data := invokeJSON(t, "chaos", "-quick", "-exp", "chaos", "-faultseed", "7", "-servesed", "7")
	var res struct {
		Spec     string `json:"spec"`
		Baseline ledger `json:"baseline"`
		Chaos    struct {
			ledger
			BladeCrashes int `json:"blade_crashes"`
		} `json:"chaos"`
		GoodputRatio float64 `json:"goodput_ratio"`
	}
	if err := json.Unmarshal(data["chaos"], &res); err != nil {
		t.Fatalf("chaos data did not parse: %v", err)
	}
	if res.Spec == "" || res.Chaos.BladeCrashes == 0 {
		t.Fatalf("chaos run fired no blade crash: %s", data["chaos"])
	}
	res.Baseline.check(t, "baseline")
	res.Chaos.check(t, "chaos")
	if !(res.GoodputRatio > 0 && res.GoodputRatio <= 1) {
		t.Fatalf("goodput ratio %v outside (0, 1]", res.GoodputRatio)
	}
}

// TestRunFleetCLI checks the fleet experiment end to end with the
// BENCH_fleet.json baseline's arguments: through the CLI, the routed,
// autoscaled fleet under flash-crowd load and the single-pool baseline
// must both conserve their six-term ledgers, the autoscaler must
// demonstrably drain off-peak, and the fleet must beat the single pool.
func TestRunFleetCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full serve calibration")
	}
	out, data := invokeJSON(t, "fleet", "-quick", "-exp", "fleet", "-pools", "4", "-blades", "2",
		"-rate", "1.5", "-servesed", "7")
	if !strings.Contains(out, "Fleet-scale serving") {
		t.Fatalf("table output missing fleet render: %s", out)
	}
	var res struct {
		Fleet struct {
			ledger
			Stats struct {
				Pools      int `json:"pools"`
				ActiveMin  int `json:"active_min"`
				ScaleDowns int `json:"scale_downs"`
			} `json:"fleet"`
		} `json:"fleet"`
		Single        ledger `json:"single"`
		GoodputFleet  int    `json:"goodput_fleet"`
		GoodputSingle int    `json:"goodput_single"`
	}
	if err := json.Unmarshal(data["fleet"], &res); err != nil {
		t.Fatalf("fleet data did not parse: %v", err)
	}
	f := res.Fleet
	f.check(t, "fleet")
	res.Single.check(t, "single")
	if f.Stats.Pools != 4 {
		t.Fatalf("fleet ran %d pools, want 4", f.Stats.Pools)
	}
	if f.Stats.ScaleDowns == 0 || f.Stats.ActiveMin >= f.Stats.Pools {
		t.Fatalf("autoscaler never drained: %s", data["fleet"])
	}
	if res.GoodputFleet <= res.GoodputSingle {
		t.Fatalf("fleet goodput %d does not beat the single pool %d", res.GoodputFleet, res.GoodputSingle)
	}
}

// TestRunProfilesWritten checks -cpuprofile/-memprofile produce non-empty
// pprof artifacts, and -trace/-metrics well-formed JSON, without
// perturbing the run's exit status. The trace runs cover the fig7 grid,
// a seeded fault plan and an explicit one, whose injected faults land in
// the trace as instants.
func TestRunProfilesWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "eqns", "-cpuprofile", cpu, "-memprofile", mem}
	if status := run(args, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		if b := readFileT(t, p); len(b) == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}

	for name, exp := range map[string][]string{
		"fig7":          {"-exp", "fig7"},
		"faults-seeded": {"-exp", "faults", "-faultseed", "7"},
		"faults-plan":   {"-exp", "faults", "-faults", "crash:spe=0,at=50ms;dma-drop:spe=1,n=3;mbox-stall:spe=2,n=1,delay=500us"},
	} {
		tracePath := filepath.Join(dir, name+"-trace.json")
		metricsPath := filepath.Join(dir, name+"-metrics.json")
		args := append([]string{"-quick", "-trace", tracePath, "-metrics", metricsPath}, exp...)
		var out, errw bytes.Buffer
		if status := run(args, &out, &errw); status != 0 {
			t.Fatalf("%s: status %d, stderr: %s", name, status, errw.String())
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(readFileT(t, tracePath), &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", name, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: trace has no events", name)
		}
		var metrics any
		if err := json.Unmarshal(readFileT(t, metricsPath), &metrics); err != nil {
			t.Fatalf("%s: metrics are not JSON: %v", name, err)
		}
	}
}

// TestRunBenchRefresh regenerates the four committed baselines into a
// temporary directory and requires each experiment's data section to
// equal the committed bench/BENCH_*.json, ignoring measured_ keys (host
// wall facts) as benchdiff does. A change that moves any reported
// virtual-time byte fails here until the baselines are refreshed.
func TestRunBenchRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full baseline matrix")
	}
	dir := t.TempDir()
	var out, errw bytes.Buffer
	if status := run([]string{"-bench-refresh", "-bench-dir", dir}, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	for file, exp := range map[string]string{
		"BENCH_serve.json": "serve",
		"BENCH_sweep.json": "fig7",
		"BENCH_fleet.json": "fleet",
		"BENCH_race.json":  "race",
	} {
		fresh := experimentData(t, readFileT(t, filepath.Join(dir, file)))
		if _, ok := fresh[exp]; !ok {
			t.Fatalf("%s missing %s experiment: %v", file, exp, fresh)
		}
		committed := experimentData(t, readFileT(t, filepath.Join("..", "..", "bench", file)))
		if len(fresh) != len(committed) {
			t.Errorf("%s: %d experiments regenerated, %d committed", file, len(fresh), len(committed))
		}
		for name, raw := range committed {
			if got, want := unmeasured(t, fresh[name]), unmeasured(t, raw); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s data differs from the committed baseline (benchdiff -strict lists the paths)", file, name)
			}
		}
	}
}

// unmeasured decodes a data section with every measured_-prefixed key
// removed, recursively.
func unmeasured(t *testing.T, raw json.RawMessage) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("data section did not parse: %v", err)
	}
	var strip func(any) any
	strip = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for k, val := range x {
				if strings.HasPrefix(k, "measured_") {
					delete(x, k)
				} else {
					x[k] = strip(val)
				}
			}
		case []any:
			for i := range x {
				x[i] = strip(x[i])
			}
		}
		return v
	}
	return strip(v)
}

// TestRunRaceQuick smoke-tests the estimator race end to end through
// the CLI: the sidecar carries the per-point error report with the
// deterministic and measured halves split by the measured_ prefix.
func TestRunRaceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real kernel execution")
	}
	jsonPath := filepath.Join(t.TempDir(), "race.json")
	var out, errw bytes.Buffer
	args := []string{"-quick", "-exp", "race", "-workers", "2", "-reps", "1", "-json", jsonPath}
	if status := run(args, &out, &errw); status != 0 {
		t.Fatalf("status %d, stderr: %s", status, errw.String())
	}
	raw := readFileT(t, jsonPath)
	var doc struct {
		Experiments map[string]struct {
			Data struct {
				Points        []map[string]json.RawMessage `json:"points"`
				AllTableMatch bool                         `json:"all_table_match"`
				AllBitExact   bool                         `json:"all_bit_exact"`
			} `json:"data"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("sidecar did not parse: %v", err)
	}
	race, ok := doc.Experiments["race"]
	if !ok {
		t.Fatalf("sidecar missing race experiment: %s", raw)
	}
	if !race.Data.AllBitExact || !race.Data.AllTableMatch {
		t.Fatalf("race run lost its deterministic guarantees: %s", raw)
	}
	if len(race.Data.Points) == 0 {
		t.Fatalf("race report has no points: %s", raw)
	}
	for _, field := range []string{"scheme", "k", "sim_service", "est_service", "sim_speedup", "table_match",
		"measured_wall_ns", "measured_speedup", "measured_rel_err"} {
		if _, ok := race.Data.Points[0][field]; !ok {
			t.Fatalf("race point missing %q: %s", field, raw)
		}
	}
	if !strings.Contains(out.String(), "Estimator race") {
		t.Fatalf("table output missing race render: %s", out.String())
	}
}
