package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// TestShardedMatchesSequentialLoop is the tentpole invariant at the serve
// layer: for both placement policies and at every worker count, the
// sharded per-blade-wheel run serializes byte-for-byte identically to
// the sequential reference loop over the same calibration and arrival
// stream.
func TestShardedMatchesSequentialLoop(t *testing.T) {
	base := quickConfig()
	base.Cal = mustCal(t)
	for _, pol := range []Policy{PolicyEstimator, PolicyRoundRobin} {
		seq := base
		seq.Policy = pol
		seq.SeqSim = true
		golden := marshal(t, mustRun(t, seq))
		for _, shards := range []int{0, 1, 2, 8} {
			cfg := base
			cfg.Policy = pol
			cfg.Shards = shards
			if got := marshal(t, mustRun(t, cfg)); !bytes.Equal(got, golden) {
				t.Fatalf("policy=%v shards=%d diverged from sequential loop:\n got %s\nwant %s",
					pol, shards, got, golden)
			}
		}
	}
}

// TestShardedMatchesSequentialOverload drives the pool through the
// stressful paths — overload, bursts, tight deadlines, expiry shedding —
// and requires the same byte identity.
func TestShardedMatchesSequentialOverload(t *testing.T) {
	base := quickConfig()
	base.Cal = mustCal(t)
	base.Rate = 2
	base.Deadline = 150 * sim.Millisecond
	seq := base
	seq.SeqSim = true
	golden := marshal(t, mustRun(t, seq))
	rep := mustRun(t, seq)
	if rep.ShedExpired == 0 {
		t.Fatal("scenario does not exercise expiry shedding; tighten the deadline")
	}
	for _, shards := range []int{1, 4} {
		cfg := base
		cfg.Shards = shards
		if got := marshal(t, mustRun(t, cfg)); !bytes.Equal(got, golden) {
			t.Fatalf("shards=%d diverged under overload:\n got %s\nwant %s", shards, got, golden)
		}
	}
}

// TestShardedMatchesSequentialUnderFaults arms a seeded fault plan (so
// the calibration table carries degraded services) and checks the byte
// identity holds when dispatches run degraded.
func TestShardedMatchesSequentialUnderFaults(t *testing.T) {
	cfg := quickConfig().withDefaults()
	cfg.Faults = fault.Seeded(7, cfg.MachineConfig.NumSPEs)
	cfg.Rate = 2
	cal, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cal = cal

	seq := cfg
	seq.SeqSim = true
	golden := marshal(t, mustRun(t, seq))
	sharded := cfg
	sharded.Shards = 4
	if got := marshal(t, mustRun(t, sharded)); !bytes.Equal(got, golden) {
		t.Fatalf("faulted sharded run diverged:\n got %s\nwant %s", got, golden)
	}
}

// TestFullFidelityByteIdentical checks verified-dispatch mode: re-running
// the machine behind every dispatch (sequentially inline, or nested in
// the blades' wheels) must not perturb the report at all.
func TestFullFidelityByteIdentical(t *testing.T) {
	base := quickConfig()
	base.Cal = mustCal(t)
	base.Requests = 24 // every dispatch costs a nested machine simulation
	golden := marshal(t, mustRun(t, base))

	ffSeq := base
	ffSeq.SeqSim = true
	ffSeq.FullFidelity = true
	if got := marshal(t, mustRun(t, ffSeq)); !bytes.Equal(got, golden) {
		t.Fatalf("sequential full-fidelity diverged:\n got %s\nwant %s", got, golden)
	}

	ffSh := base
	ffSh.FullFidelity = true
	ffSh.Shards = 4
	if got := marshal(t, mustRun(t, ffSh)); !bytes.Equal(got, golden) {
		t.Fatalf("sharded full-fidelity diverged:\n got %s\nwant %s", got, golden)
	}
}

// BenchmarkPoolEventLoop times the admission/dispatch loop alone (no
// nested dispatch simulations): calibration is shared and the stream is
// long, so per-arrival allocation on the placement and batching paths
// dominates allocs/op. This is the benchmark behind the placeOrder /
// batch-buffer hoists documented in EXPERIMENTS.md.
func BenchmarkPoolEventLoop(b *testing.B) {
	cal, err := sharedCal()
	if err != nil {
		b.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Requests = 512
	cfg.Rate = 2
	cfg.Cal = cal
	cfg.SeqSim = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullFidelityCatchesStaleCalibration poisons one calibration table
// entry and checks verified dispatch fails the run with the blade's
// divergence instead of silently serving from a stale table.
func TestFullFidelityCatchesStaleCalibration(t *testing.T) {
	cal := mustCal(t)
	poisoned := &Calibration{
		maxBatch: cal.maxBatch,
		services: map[svcKey]svc{},
		geoms:    cal.geoms,
		perBlade: cal.perBlade,
	}
	for k, v := range cal.services {
		poisoned.services[k] = v
	}
	k := svcKey{Scheme: SchemeJob, Tall: false, K: 1}
	v := poisoned.services[k]
	v.Service += sim.Microsecond
	poisoned.services[k] = v

	cfg := quickConfig()
	cfg.Cal = poisoned
	cfg.Requests = 16
	cfg.FullFidelity = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("poisoned calibration served without a full-fidelity error")
	}
	if !strings.Contains(err.Error(), "full-fidelity") || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// BenchmarkFleetAdmit times the admission loop at fleet scale with the
// calibration preset, so only routing, placement, batching and the
// epochs are measured: the estimator policy, a diurnal stream at 0.6×
// the estimated capacity, and a seeded rolling-restart plan. 256 blades
// (64 pools of 4, autoscaler armed) is the fleet benchmark workload's
// shape; 3 blades is the classic single pool and 1000 blades is 250
// pools of 4. Each size runs the sequential loop and the default sharded
// loop on 2 workers. us/req and allocs/req divide by the request count.
func BenchmarkFleetAdmit(b *testing.B) {
	cal, err := sharedCal()
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []struct{ pools, blades int }{{0, 3}, {64, 4}, {250, 4}} {
		total := size.blades
		if size.pools > 0 {
			total *= size.pools
		}
		cfg := quickConfig()
		cfg.Pools = size.pools
		cfg.Blades = size.blades
		cfg.MaxQueue = 8
		cfg.Requests = 20000
		cfg.Policy = PolicyEstimator
		cfg.Cal = cal
		cfg.Load = &RateModel{DiurnalAmp: 0.6}
		cfg.OfferedRPS = 0.6 * cal.PerBladeCapacity() * float64(total)
		cfg.Faults = fault.SeededFleet(1, total, sim.FromSeconds(float64(cfg.Requests)/cfg.OfferedRPS))
		if size.pools > 0 {
			cfg.Autoscale = &Autoscale{}
		}
		for _, seq := range []bool{true, false} {
			cfg := cfg
			cfg.SeqSim = seq
			cfg.Shards = 2
			name := fmt.Sprintf("blades=%d/sharded", total)
			if seq {
				name = fmt.Sprintf("blades=%d/sequential", total)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				reqs := float64(b.N * cfg.Requests)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/reqs, "us/req")
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/reqs, "allocs/req")
			})
		}
	}
}
