package marvel

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestScheduleTable pins what each scenario means: its name, and that
// every schedule issues each extraction kernel exactly once.
func TestScheduleTable(t *testing.T) {
	names := map[Scenario]string{
		SingleSPE: "single-spe",
		MultiSPE:  "multi-spe",
		MultiSPE2: "multi-spe2",
		Pipelined: "pipelined",
	}
	for s, name := range names {
		if got := s.String(); got != name {
			t.Errorf("Scenario(%d).String() = %q, want %q", int(s), got, name)
		}
		sched, err := s.Schedule()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		order := slices.Clone(sched.Order)
		slices.Sort(order)
		if !slices.Equal(order, []KernelID{KCH, KCC, KTX, KEH}) {
			t.Errorf("%v: order %v is not a permutation of the extraction kernels", s, sched.Order)
		}
	}
	if got := Scenario(len(names)).String(); got != "Scenario(4)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// TestRunPortedRejectsUnknownScenario: an out-of-range scenario is an
// error, not a silent alias for one of the four schedules.
func TestRunPortedRejectsUnknownScenario(t *testing.T) {
	for _, s := range []Scenario{-1, Pipelined + 1} {
		if _, err := s.Schedule(); err == nil {
			t.Errorf("Scenario(%d).Schedule() accepted", int(s))
		}
		_, err := RunPorted(PortedConfig{Workload: testWorkload(1), Scenario: s, MachineConfig: testMachineConfig()})
		if err == nil {
			t.Errorf("RunPorted accepted Scenario(%d)", int(s))
		}
	}
}

// TestCompareImageNaNScore: a NaN concept score is a mismatch, both in
// the port's own validation and in the exported comparison the race
// experiment uses.
func TestCompareImageNaNScore(t *testing.T) {
	ref := ImageResult{Scores: [4]float64{0.5, 0.5, 0.5, 0.5}}
	for i := range ref.Scores {
		got := ref
		got.Scores[i] = math.NaN()
		if n := compareImage(&ref, &got); n != 1 {
			t.Errorf("score %d NaN: compareImage = %d mismatches, want 1", i, n)
		}
		if n := CompareImageResults(&ref, &got); n != 1 {
			t.Errorf("score %d NaN: CompareImageResults = %d mismatches, want 1", i, n)
		}
	}
}

// TestImageResultSetMatchesDetect: the per-kernel setter and model
// lookup fill the same slots as the reference detection.
func TestImageResultSetMatchesDetect(t *testing.T) {
	ms, err := NewModelSet(3)
	if err != nil {
		t.Fatal(err)
	}
	var want ImageResult
	want.CH = make([]float32, DimCH)
	want.CC = make([]float32, DimCC)
	want.EH = make([]float32, DimEH)
	want.TX = make([]float32, DimTX)
	for _, v := range [][]float32{want.CH, want.CC, want.EH, want.TX} {
		for i := range v {
			v[i] = float32(i%7) / 7
		}
	}
	ms.Detect(&want)
	var got ImageResult
	for _, id := range listingOrder {
		vec := map[KernelID][]float32{KCH: want.CH, KCC: want.CC, KTX: want.TX, KEH: want.EH}[id]
		got.Set(id, vec, ms.Model(id).Decision(vec))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Set/Model disagree with Detect: scores %v, want %v", got.Scores, want.Scores)
	}
}
