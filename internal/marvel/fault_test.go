package marvel

import (
	"reflect"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/fault"
	"cellport/internal/sim"
)

// faultCfg is the baseline supervised-run configuration the fault tests
// perturb.
func faultCfg(n int) PortedConfig {
	return PortedConfig{
		Workload:      testWorkload(n),
		Scenario:      MultiSPE,
		Variant:       Optimized,
		Validate:      true,
		MachineConfig: testMachineConfig(),
		Artifacts:     NewArtifactCache(),
	}
}

func mustRun(t *testing.T, cfg PortedConfig) *PortedResult {
	t.Helper()
	res, err := RunPorted(cfg)
	if err != nil {
		t.Fatalf("RunPorted(%v): %v", cfg.Scenario, err)
	}
	return res
}

// TestFaultFreeByteIdentical is the tentpole's first invariant: arming
// the fault layer with a plan that never fires must leave the run
// byte-identical to one with no fault support at all — same outputs, same
// virtual time, same dispatched-event fingerprint.
func TestFaultFreeByteIdentical(t *testing.T) {
	base := mustRun(t, faultCfg(2))
	// Count-based faults with unreachable trigger counts: every hook is
	// installed and sampled, but nothing ever fires.
	armed := faultCfg(2)
	var err error
	armed.Faults, err = fault.Parse(
		"dma-drop:spe=0,n=999999999;dma-corrupt:spe=1,n=999999999;" +
			"mbox-stall:spe=2,n=999999999,delay=1ms;ls-overflow:spe=3,n=999999999")
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, armed)

	if !reflect.DeepEqual(got.Images, base.Images) {
		t.Error("armed-but-unfired run produced different outputs")
	}
	if got.EventCount != base.EventCount {
		t.Errorf("EventCount %d != baseline %d: arming faults perturbed the event stream",
			got.EventCount, base.EventCount)
	}
	if got.Total != base.Total {
		t.Errorf("Total %v != baseline %v", got.Total, base.Total)
	}
	if got.ValidationErrors != 0 || base.ValidationErrors != 0 {
		t.Errorf("validation errors: base=%d armed=%d", base.ValidationErrors, got.ValidationErrors)
	}
	if got.Faults == nil || len(got.Faults.Injected) != 0 {
		t.Errorf("Faults report = %+v, want present with nothing injected", got.Faults)
	}
	if base.Faults != nil {
		t.Error("fault-free run carries a fault report")
	}
}

// TestSeededFaultPlanDeterministic: the same seed yields the same plan,
// the same injected events, the same recovery counters, and the same
// event-count fingerprint — the replay guarantee under faults.
func TestSeededFaultPlanDeterministic(t *testing.T) {
	run := func() *PortedResult {
		cfg := faultCfg(2)
		cfg.Faults = fault.Seeded(7, cfg.MachineConfig.NumSPEs)
		return mustRun(t, cfg)
	}
	a, b := run(), run()
	if a.ValidationErrors != 0 {
		t.Errorf("%d validation errors under seeded faults: recovery must stay bit-exact", a.ValidationErrors)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("fault reports diverged:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if a.EventCount != b.EventCount {
		t.Errorf("EventCount %d vs %d: seeded fault runs must replay exactly", a.EventCount, b.EventCount)
	}
	if !reflect.DeepEqual(a.Images, b.Images) {
		t.Error("seeded fault runs produced different outputs")
	}
}

// TestCrashRedispatchBitExact: an SPE crash mid-run is recovered by
// re-dispatching its kernel to a spare SPE, and the outputs still match
// the host reference bit-for-bit.
func TestCrashRedispatchBitExact(t *testing.T) {
	base := mustRun(t, faultCfg(2))
	cfg := faultCfg(2)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.CrashSPE, SPE: 0, At: sim.Time(base.Total / 2)},
	}}
	got := mustRun(t, cfg)
	if got.ValidationErrors != 0 {
		t.Errorf("%d validation errors after crash recovery", got.ValidationErrors)
	}
	if !reflect.DeepEqual(got.Images, base.Images) {
		t.Error("recovered run's outputs differ from the fault-free run")
	}
	rep := got.Faults
	if rep == nil {
		t.Fatal("no fault report")
	}
	if len(rep.Injected) != 1 || rep.Injected[0].Kind != "crash" {
		t.Fatalf("Injected = %+v, want the one crash", rep.Injected)
	}
	if len(rep.SPEsLost) != 1 || rep.SPEsLost[0] != 0 {
		t.Errorf("SPEsLost = %v, want [0]", rep.SPEsLost)
	}
	if rep.Redispatches < 1 {
		t.Errorf("Redispatches = %d, want >=1 (spare SPE took over)", rep.Redispatches)
	}
}

// TestDMACorruptRetriesWithBackoff: a corrupted DMA surfaces as a
// retryable DMA-fault result; the supervisor retries with backoff and the
// retried run is bit-exact.
func TestDMACorruptRetriesWithBackoff(t *testing.T) {
	base := mustRun(t, faultCfg(1))
	cfg := faultCfg(1)
	var err error
	cfg.Faults, err = fault.Parse("dma-corrupt:spe=0,n=2")
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, cfg)
	if got.ValidationErrors != 0 {
		t.Errorf("%d validation errors after DMA-corrupt retry", got.ValidationErrors)
	}
	if !reflect.DeepEqual(got.Images, base.Images) {
		t.Error("retried run's outputs differ from the fault-free run")
	}
	rep := got.Faults
	if rep.Retries < 1 {
		t.Errorf("Retries = %d, want >=1", rep.Retries)
	}
	if rep.BackoffTime <= 0 {
		t.Errorf("BackoffTime = %v, want > 0", rep.BackoffTime)
	}
	if len(rep.Injected) != 1 || rep.Injected[0].Kind != "dma-corrupt" {
		t.Errorf("Injected = %+v", rep.Injected)
	}
}

// TestDMADropWatchdogRecovers: a dropped DMA hangs its kernel invocation
// forever; the virtual-time watchdog declares the SPE dead, re-dispatches,
// and the run completes bit-exact.
func TestDMADropWatchdogRecovers(t *testing.T) {
	base := mustRun(t, faultCfg(1))
	cfg := faultCfg(1)
	var err error
	cfg.Faults, err = fault.Parse("dma-drop:spe=1,n=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Watchdog = 2 * sim.Millisecond
	got := mustRun(t, cfg)
	if got.ValidationErrors != 0 {
		t.Errorf("%d validation errors after watchdog recovery", got.ValidationErrors)
	}
	if !reflect.DeepEqual(got.Images, base.Images) {
		t.Error("watchdog-recovered run's outputs differ from the fault-free run")
	}
	rep := got.Faults
	if rep.WatchdogTimeouts < 1 {
		t.Errorf("WatchdogTimeouts = %d, want >=1", rep.WatchdogTimeouts)
	}
	if len(rep.SPEsLost) != 1 || rep.SPEsLost[0] != 1 {
		t.Errorf("SPEsLost = %v, want [1]", rep.SPEsLost)
	}
	if rep.Redispatches < 1 {
		t.Errorf("Redispatches = %d, want >=1", rep.Redispatches)
	}
}

// TestCrashFallsBackToPPE: with no spare SPE to re-dispatch to, the
// supervisor degrades the lost kernel to PPE execution — slower, but
// still bit-exact against the host reference.
func TestCrashFallsBackToPPE(t *testing.T) {
	mcfg := cell.DefaultConfig()
	mcfg.MemorySize = 64 << 20
	mcfg.NumSPEs = 5 // MultiSPE uses all five: no redispatch pool
	base := faultCfg(1)
	base.MachineConfig = &mcfg
	baseRes := mustRun(t, base)

	cfg := base
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.CrashSPE, SPE: 0, At: sim.Time(baseRes.Total / 2)},
	}}
	got := mustRun(t, cfg)
	if got.ValidationErrors != 0 {
		t.Errorf("%d validation errors in degraded mode", got.ValidationErrors)
	}
	if !reflect.DeepEqual(got.Images, baseRes.Images) {
		t.Error("PPE-fallback outputs differ from the fault-free run")
	}
	rep := got.Faults
	if rep.Fallbacks < 1 {
		t.Errorf("Fallbacks = %d, want >=1 (no spare SPE remains)", rep.Fallbacks)
	}
	if rep.DegradedTime <= 0 {
		t.Errorf("DegradedTime = %v, want > 0", rep.DegradedTime)
	}
	if len(rep.SPEsLost) != 1 || rep.SPEsLost[0] != 0 {
		t.Errorf("SPEsLost = %v, want [0]", rep.SPEsLost)
	}
}

// TestMboxStallAndLSOverflowRecover: the two "soft" fault kinds — a
// stalled mailbox write and a transient local-store allocation failure —
// are absorbed (delay; retry) without output damage.
func TestMboxStallAndLSOverflowRecover(t *testing.T) {
	base := mustRun(t, faultCfg(1))
	cfg := faultCfg(1)
	var err error
	cfg.Faults, err = fault.Parse("mbox-stall:spe=0,n=1,delay=300us;ls-overflow:spe=2,n=3")
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, cfg)
	if got.ValidationErrors != 0 {
		t.Errorf("%d validation errors", got.ValidationErrors)
	}
	if !reflect.DeepEqual(got.Images, base.Images) {
		t.Error("outputs differ from the fault-free run")
	}
	if n := len(got.Faults.Injected); n != 2 {
		t.Errorf("Injected = %+v, want both soft faults fired", got.Faults.Injected)
	}
	if got.Faults.Retries < 1 {
		t.Errorf("Retries = %d, want >=1 (the failed allocation forced a kernel retry)", got.Faults.Retries)
	}
	if got.Total <= base.Total {
		t.Errorf("faulted Total %v <= fault-free %v: the stall and retry cost no time", got.Total, base.Total)
	}
}
