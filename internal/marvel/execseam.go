package marvel

import (
	"fmt"

	"cellport/internal/img"
	"cellport/internal/ls"
	"cellport/internal/metrics"
	"cellport/internal/trace"
)

// This file is the seam between the simulated port and the
// real-execution backend (internal/exec): exported views of the kernel
// accumulators and the in-kernel slice planning, plus the ExecBackend
// hook RunPorted drives. The backend lives outside this package so
// marvel stays free of host-clock concerns; everything exported here is
// deterministic.

// Accumulator is the exported view of the incremental per-slice feature
// computation every extraction kernel runs over its DMA'd bands — the
// exact code the simulated SPE kernels execute, so anything driving it
// over the same slice plan reproduces kernel outputs bit for bit.
type Accumulator interface {
	// Process folds payload rows [y0, y1) of band (band-relative
	// coordinates) into the accumulator.
	Process(band *img.RGB, y0, y1 int)
	// Finalize returns the feature vector. Call once, after the last
	// slice.
	Finalize() []float32
}

type accExport struct{ a sliceAcc }

func (e accExport) Process(b *img.RGB, y0, y1 int) { e.a.process(b, y0, y1) }
func (e accExport) Finalize() []float32            { return e.a.finalize() }

// NewAccumulator returns a fresh accumulator for an extraction kernel.
// It panics for KCD (detection has no slice geometry), like the
// kernel-geometry table it fronts.
func NewAccumulator(id KernelID) Accumulator {
	return accExport{a: kernelGeom(id).newAcc()}
}

// ExecPlan reproduces, outside the simulator, the exact halo'd slice
// plan the simulated kernel computes for a whole-image OpRun against
// its local store: a fresh LS image with the kernel's program loaded
// and the wrapper header allocated, then the same per-row budget
// arithmetic (sliceBudget) and the same planner (planRange). The
// real-execution backend streams bands by this plan so its memory
// traversal — slice extents, halos, double-buffer reuse — matches what
// the simulator charged for.
func ExecPlan(id KernelID, v Variant, w, h int) ([]img.Slice, error) {
	if id == KCD {
		return nil, fmt.Errorf("marvel: ExecPlan: %s has no slice geometry", id)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("marvel: ExecPlan: bad geometry %dx%d", w, h)
	}
	st := ls.New()
	if err := st.LoadProgram(Cal(id).CodeBytes); err != nil {
		return nil, err
	}
	if _, err := st.Alloc(exHdrBytes, 16); err != nil {
		return nil, err
	}
	g := kernelGeom(id)
	stride := img.StrideFor(w)
	budget := sliceBudget(st.Free(), id, v, w, stride)
	return planRange(0, h, h, budget, g.halo, g.granularity)
}

// CompareImageResults counts output mismatches between two per-image
// results with the port's validation semantics: feature vectors must
// match bit for bit, scores after float32 rounding. Exported for the
// real-execution harness, which validates executed outputs against the
// retained host references.
func CompareImageResults(ref, got *ImageResult) int { return compareImage(ref, got) }

// ExecPoint identifies one real-execution batch: the workload (k images
// of one geometry), the scheduling scenario, and the kernel variant —
// the same triple that configures a simulated dispatch.
type ExecPoint struct {
	Workload Workload
	Scenario Scenario
	Variant  Variant
}

// ExecRun reports one real execution of a point. Every field in the
// wall-clock domain (WallNS and the scheduler counters) is
// host-dependent; Images is deterministic (and bit-exact against the
// host references at any worker count). Trace and Metrics mirror
// PortedResult's instrumentation fields and are excluded from JSON for
// the same fingerprint-neutrality reason — but note their clock domain:
// exec trace timestamps are wall nanoseconds, never virtual time.
type ExecRun struct {
	// Workers is the pool width that ran the task graph; Reps is how
	// many times the graph was run (WallNS keeps the fastest).
	Workers int `json:"measured_workers"`
	Reps    int `json:"measured_reps"`
	// WallNS is the best-of-reps wall-clock time for the batch graph in
	// host nanoseconds.
	WallNS int64 `json:"measured_wall_ns"`
	// Tasks, Steals and Stolen are the executor's counters over the last
	// rep (tasks completed, successful steal operations, tasks moved).
	Tasks  uint64 `json:"measured_tasks"`
	Steals uint64 `json:"measured_steals"`
	Stolen uint64 `json:"measured_stolen"`
	// Images holds the outputs computed by the real kernels.
	Images []ImageResult `json:"-"`
	// Trace holds wall-clock spans when the backend instruments
	// (exec/* tracks; see DESIGN.md §14).
	Trace *trace.Recorder `json:"-"`
	// Metrics is the backend's snapshot (all keys under the "exec"
	// component) when instrumenting.
	Metrics *metrics.Snapshot `json:"-"`
}

// ExecBackend runs a point's kernels for real. Implementations live
// outside this package (internal/exec); RunPorted drives the configured
// backend after the simulation finishes, attaching the run to
// PortedResult.Exec.
type ExecBackend interface {
	Execute(p ExecPoint) (*ExecRun, error)
}
