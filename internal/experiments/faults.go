package experiments

import (
	"fmt"
	"io"
	"reflect"

	"cellport/internal/fault"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/sim"
)

// FaultsResult reports the fault-injection experiment: a fault-free
// baseline against a supervised run under a deterministic fault plan,
// with the structured recovery record and the determinism cross-check.
type FaultsResult struct {
	Scenario string `json:"scenario"`
	// Spec is the canonical fault plan (Parse-able; reproduces the run).
	Spec string `json:"spec"`
	// Seed is the plan seed (0 when an explicit -faults spec was given).
	Seed uint64 `json:"seed"`
	// Baseline and Faulted are the runs' virtual times.
	Baseline sim.Duration `json:"baseline_fs"`
	Faulted  sim.Duration `json:"faulted_fs"`
	// Report is the faulted run's structured fault record.
	Report *fault.Report `json:"report"`
	// ValidationErrors counts output mismatches against the host
	// reference in the faulted run (the bit-exactness check).
	ValidationErrors int `json:"validation_errors"`
	// EventCount is the faulted run's replay fingerprint.
	EventCount uint64 `json:"event_count"`
	// Deterministic reports whether a repeat of the faulted run produced
	// an identical fault report and event count.
	Deterministic bool `json:"deterministic"`
}

// FaultsExp runs the robustness experiment: one fault-free baseline and
// two identical supervised runs under the configured fault plan (explicit
// -faults spec, else seeded from -faultseed). The three simulations are
// independent and fan out over the worker pool.
func FaultsExp(cfg Config) (*FaultsResult, error) {
	var plan *fault.Plan
	var err error
	res := &FaultsResult{Scenario: marvel.MultiSPE.String()}
	if cfg.FaultSpec != "" {
		if plan, err = fault.Parse(cfg.FaultSpec); err != nil {
			return nil, err
		}
	} else {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = 1
		}
		plan = fault.Seeded(seed, MachineConfig().NumSPEs)
		res.Seed = seed
	}
	res.Spec = plan.String()

	w := cfg.Workload(2)
	runOne := func(label string, p *fault.Plan) (*marvel.PortedResult, error) {
		pc := cfg.ported(w, marvel.MultiSPE, marvel.Optimized)
		pc.Validate = true
		pc.Faults = p
		pc.Watchdog = cfg.Watchdog
		return cfg.runPorted(label, pc)
	}
	runs, err := parallel.RunIndexed(cfg.Parallel, 3, func(i int) (*marvel.PortedResult, error) {
		switch i {
		case 0:
			return runOne("faults/baseline", nil) // fault-free baseline
		case 1:
			return runOne("faults/injected", plan)
		default:
			return runOne("faults/repeat", plan)
		}
	})
	if err != nil {
		return nil, err
	}
	base, faulted, repeat := runs[0], runs[1], runs[2]
	res.Baseline = base.Total
	res.Faulted = faulted.Total
	res.Report = faulted.Faults
	res.ValidationErrors = faulted.ValidationErrors
	res.EventCount = faulted.EventCount
	res.Deterministic = faulted.EventCount == repeat.EventCount &&
		reflect.DeepEqual(faulted.Faults, repeat.Faults) &&
		reflect.DeepEqual(faulted.Images, repeat.Images)
	return res, nil
}

// RenderFaults prints the robustness experiment.
func RenderFaults(w io.Writer, r *FaultsResult) {
	fmt.Fprintf(w, "Fault injection & self-healing — %s scenario\n", r.Scenario)
	if r.Seed != 0 {
		fmt.Fprintf(w, "plan (seed %d): %s\n", r.Seed, r.Spec)
	} else {
		fmt.Fprintf(w, "plan: %s\n", r.Spec)
	}
	rep := r.Report
	fmt.Fprintf(w, "injected %d/%d planned faults\n", len(rep.Injected), rep.Planned)
	for _, ev := range rep.Injected {
		fmt.Fprintf(w, "  %-12s spe%-2d at %-16s %s\n", ev.Kind, ev.SPE, ev.At, ev.Detail)
	}
	fmt.Fprintf(w, "recovery: %d retries (%s backoff), %d watchdog timeouts, %d redispatches, %d PPE fallbacks (%s degraded)\n",
		rep.Retries, rep.BackoffTime, rep.WatchdogTimeouts, rep.Redispatches, rep.Fallbacks, rep.DegradedTime)
	if len(rep.SPEsLost) > 0 {
		fmt.Fprintf(w, "SPEs lost: %v\n", rep.SPEsLost)
	}
	over := 0.0
	if r.Baseline > 0 {
		over = (r.Faulted.Seconds() - r.Baseline.Seconds()) / r.Baseline.Seconds() * 100
	}
	fmt.Fprintf(w, "virtual time: baseline %s, faulted %s (+%.1f%%)\n", r.Baseline, r.Faulted, over)
	fmt.Fprintf(w, "outputs bit-exact vs host reference: %v (%d validation errors)\n",
		r.ValidationErrors == 0, r.ValidationErrors)
	fmt.Fprintf(w, "deterministic replay (same plan twice): %v (event count %d)\n",
		r.Deterministic, r.EventCount)
}
