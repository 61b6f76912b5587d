package marvel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/trace"
)

// memoOutcome is everything a ported run reports that the kernel output
// memo must not change: the JSON result, the replay fingerprint and the
// Chrome trace of the run's spans.
type memoOutcome struct {
	doc    []byte
	events uint64
	chrome []byte
	valErr int
}

// runTraced runs cfg on a machine with a trace recorder attached and
// returns its memoOutcome.
func runTraced(t *testing.T, cfg PortedConfig) memoOutcome {
	t.Helper()
	mc := *testMachineConfig()
	rec := trace.NewRecorder()
	mc.Tracer = rec
	cfg.MachineConfig = &mc
	res := mustRun(t, cfg)
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, []trace.ChromeProcess{{Pid: 1, Name: "run", Rec: rec}}); err != nil {
		t.Fatal(err)
	}
	return memoOutcome{doc: doc, events: res.EventCount, chrome: chrome.Bytes(), valErr: res.ValidationErrors}
}

func (a memoOutcome) diff(t *testing.T, what string, b memoOutcome) {
	t.Helper()
	if !bytes.Equal(a.doc, b.doc) {
		t.Errorf("%s: PortedResult JSON differs:\n got %s\nwant %s", what, a.doc, b.doc)
	}
	if a.events != b.events {
		t.Errorf("%s: EventCount %d, want %d", what, a.events, b.events)
	}
	if !bytes.Equal(a.chrome, b.chrome) {
		t.Errorf("%s: Chrome trace differs (%d vs %d bytes)", what, len(a.chrome), len(b.chrome))
	}
}

// TestKernelMemoEquivalence runs every scenario × variant twice on one
// shared cache (the second run serves every extraction from the memo)
// and once on a fresh cache, and requires identical results, event
// counts and traces. The data-parallel bands are checked the same way.
func TestKernelMemoEquivalence(t *testing.T) {
	shared := NewArtifactCache()
	for _, scen := range []Scenario{SingleSPE, MultiSPE, MultiSPE2, Pipelined} {
		for _, v := range []Variant{Naive, Optimized} {
			cfg := PortedConfig{Workload: testWorkload(2), Scenario: scen, Variant: v, Validate: true}
			cfg.Artifacts = NewArtifactCache()
			fresh := runTraced(t, cfg)
			cfg.Artifacts = shared
			first := runTraced(t, cfg)
			h0, _ := shared.OutputStats()
			warm := runTraced(t, cfg)
			h1, _ := shared.OutputStats()
			name := scen.String() + "/" + v.String()
			if h1-h0 != 8 {
				t.Errorf("%s: warm run made %d memo hits, want 8 (2 images × 4 extractions)", name, h1-h0)
			}
			first.diff(t, name+" first shared run", fresh)
			warm.diff(t, name+" warm shared run", fresh)
			if fresh.valErr != 0 || warm.valErr != 0 {
				t.Errorf("%s: validation errors fresh=%d warm=%d", name, fresh.valErr, warm.valErr)
			}
		}
	}

	w := testWorkload(1)
	for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
		for _, n := range []int{1, 2, 4} {
			want, err := RunDataParallelExtraction(id, n, w, Optimized, testMachineConfig(), NewArtifactCache())
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := RunDataParallelExtraction(id, n, w, Optimized, testMachineConfig(), shared)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !got.Matches {
					t.Errorf("%s/%d pass %d: data-parallel result %+v, want %+v", id, n, pass, got, want)
				}
			}
		}
	}
	if hits, misses := shared.OutputStats(); hits == 0 || misses == 0 {
		t.Fatalf("OutputStats = %d hits / %d misses: the comparison is vacuous", hits, misses)
	}
}

// TestKernelMemoPoison overwrites one memoized output: a Validate run
// must then serve the poisoned words and report them, which proves that
// hits come from the memo and that validation still sees them.
func TestKernelMemoPoison(t *testing.T) {
	arts := NewArtifactCache()
	cfg := PortedConfig{
		Workload:      testWorkload(1),
		Scenario:      SingleSPE,
		Variant:       Optimized,
		Validate:      true,
		MachineConfig: testMachineConfig(),
		Artifacts:     arts,
	}
	if res := mustRun(t, cfg); res.ValidationErrors != 0 {
		t.Fatalf("clean run: %d validation errors", res.ValidationErrors)
	}
	arts.outMu.Lock()
	poisoned := 0
	for k, b := range arts.outputs {
		if k.Kernel == KEH {
			bad := append([]byte(nil), b...)
			bad[0] ^= 0x40
			arts.outputs[k] = bad
			poisoned++
		}
	}
	arts.outMu.Unlock()
	if poisoned != 1 {
		t.Fatalf("poisoned %d memo entries, want 1", poisoned)
	}
	if res := mustRun(t, cfg); res.ValidationErrors == 0 {
		t.Fatal("validation missed a poisoned memo entry")
	}
}

// TestKernelMemoFaultBypass: a run with an armed dma-corrupt plan
// neither reads nor writes the memo, and its outputs equal a fresh-cache
// run's under the same plan.
func TestKernelMemoFaultBypass(t *testing.T) {
	arts := NewArtifactCache()
	clean := faultCfg(2)
	clean.Artifacts = arts
	mustRun(t, clean)
	hits, misses := arts.OutputStats()
	if misses == 0 {
		t.Fatal("clean run never consulted the memo")
	}

	plan, err := fault.Parse("dma-corrupt:spe=0,n=2;dma-corrupt:spe=2,n=3")
	if err != nil {
		t.Fatal(err)
	}
	armed := faultCfg(2)
	armed.Faults = plan
	armed.Artifacts = arts
	got := mustRun(t, armed)
	if h, m := arts.OutputStats(); h != hits || m != misses {
		t.Fatalf("fault-armed run moved OutputStats from %d/%d to %d/%d", hits, misses, h, m)
	}

	armed.Artifacts = NewArtifactCache()
	want := mustRun(t, armed)
	if !reflect.DeepEqual(got.Images, want.Images) || got.EventCount != want.EventCount || got.Total != want.Total {
		t.Fatal("fault-armed run on a shared cache differs from one on a fresh cache")
	}
	if !reflect.DeepEqual(got.Faults, want.Faults) || len(got.Faults.Injected) == 0 {
		t.Fatalf("fault reports differ or nothing was injected: %+v vs %+v", got.Faults, want.Faults)
	}
}
