package experiments

import (
	"fmt"
	"io"

	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// Scaling is an extension beyond the paper's evaluation: the paper
// schedules one kernel per SPE (task parallelism) and names data
// parallelism across SPEs as a further layer (§2) without evaluating it.
// This experiment row-splits individual extraction kernels across 1–8
// SPEs and reports time, speed-up and parallel efficiency — the natural
// next step once the correlogram dominates the parallel schedule (it
// bounds scenario 2/3 at ~30×; splitting it lifts that bound).

// ScalingRow is one kernel × SPE-count measurement.
type ScalingRow struct {
	Kernel     marvel.KernelID
	NSPEs      int
	Time       sim.Duration
	SpeedUp    float64 // vs the same kernel on 1 SPE
	Efficiency float64 // SpeedUp / NSPEs
	Matches    bool    // merged feature equals the whole-image reference
}

// Scaling measures data-parallel extraction for the windowed kernels. The
// kernel × SPE-count sweep fans out over the worker pool (RunIndexed);
// speed-ups are derived afterward against each kernel's 1-SPE row. The
// image, its reference features and the kernels' band outputs come from
// the configuration's artifact cache.
func Scaling(cfg Config) ([]ScalingRow, error) {
	w := cfg.Workload(1)
	kernels := []marvel.KernelID{marvel.KCC, marvel.KEH, marvel.KCH, marvel.KTX}
	counts := []int{1, 2, 4, 8}
	rows, err := parallel.RunIndexed(cfg.Parallel, len(kernels)*len(counts), func(i int) (ScalingRow, error) {
		id, n := kernels[i/len(counts)], counts[i%len(counts)]
		res, err := marvel.RunDataParallelExtraction(id, n, w, marvel.Optimized, MachineConfig(), cfg.artifacts())
		if err != nil {
			return ScalingRow{}, fmt.Errorf("scaling %s/%d: %w", id, n, err)
		}
		return ScalingRow{Kernel: id, NSPEs: n, Time: res.Time, Matches: res.Matches}, nil
	})
	if err != nil {
		return nil, err
	}
	base := map[marvel.KernelID]sim.Duration{}
	for _, r := range rows {
		if r.NSPEs == 1 {
			base[r.Kernel] = r.Time
		}
	}
	for i := range rows {
		rows[i].SpeedUp = base[rows[i].Kernel].Seconds() / rows[i].Time.Seconds()
		rows[i].Efficiency = rows[i].SpeedUp / float64(rows[i].NSPEs)
	}
	return rows, nil
}

// RenderScaling prints the scaling table.
func RenderScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintf(w, "Extension — data-parallel extraction across SPEs (row splitting,\n")
	fmt.Fprintf(w, "halos clamped at image bounds; merged output verified bit-exact)\n\n")
	fmt.Fprintf(w, "%-12s %6s %12s %9s %11s %8s\n", "Kernel", "SPEs", "time", "speed-up", "efficiency", "exact")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6d %12s %8.2fx %10.1f%% %8v\n",
			r.Kernel, r.NSPEs, r.Time, r.SpeedUp, r.Efficiency*100, r.Matches)
	}
}

// PipelineRow compares a schedule's per-image time and PPE speed-up.
type PipelineRow struct {
	Scenario marvel.Scenario
	PerImage sim.Duration
	SpeedUp  float64 // vs the PPE reference, per image
}

// Pipeline measures the extension schedule that overlaps PPE
// preprocessing of image i+1 with SPE processing of image i, against the
// paper's best scenario. Per-image preprocessing bounds the paper's
// schedules from below; the pipeline hides the SPE work behind it.
func Pipeline(cfg Config) ([]PipelineRow, error) {
	n := 8
	if cfg.Quick {
		n = 4
	}
	w := cfg.Workload(n)
	scens := []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE2, marvel.Pipelined}
	// Job 0 is the PPE reference; jobs 1..3 the ported schedules.
	results, err := parallel.RunIndexed(cfg.Parallel, 1+len(scens), func(i int) (any, error) {
		if i == 0 {
			return cfg.artifacts().Reference(cost.NewPPE(), w)
		}
		scen := scens[i-1]
		return cfg.runPorted(fmt.Sprintf("pipeline/%s/n=%d", scen, n), cfg.ported(w, scen, marvel.Optimized))
	})
	if err != nil {
		return nil, err
	}
	ref := results[0].(*marvel.ReferenceResult)
	var rows []PipelineRow
	for i, scen := range scens {
		res := results[1+i].(*marvel.PortedResult)
		rows = append(rows, PipelineRow{
			Scenario: scen,
			PerImage: res.PerImage,
			SpeedUp:  ref.PerImage.Seconds() / res.PerImage.Seconds(),
		})
	}
	return rows, nil
}

// RenderPipeline prints the pipeline comparison.
func RenderPipeline(w io.Writer, rows []PipelineRow) {
	fmt.Fprintf(w, "Extension — cross-image pipelining (PPE preprocesses image i+1\n")
	fmt.Fprintf(w, "while the SPEs process image i; detection replicated as in\n")
	fmt.Fprintf(w, "scenario 3):\n\n")
	fmt.Fprintf(w, "%-12s %14s %12s\n", "schedule", "per-image", "vs PPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14s %11.2fx\n", r.Scenario, r.PerImage, r.SpeedUp)
	}
}
