package serve

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"cellport/internal/fault"
	"cellport/internal/sim"
)

// TestFullFidelityByteIdentical checks verified-dispatch mode: re-running
// the machine behind every dispatch, at any verification width, must not
// perturb the report at all.
func TestFullFidelityByteIdentical(t *testing.T) {
	base := quickConfig()
	base.Cal = mustCal(t)
	base.Requests = 24 // every dispatch costs a nested machine simulation
	golden := marshal(t, mustRun(t, base))

	for _, shards := range []int{1, 4} {
		ff := base
		ff.FullFidelity = true
		ff.Shards = shards
		if got := marshal(t, mustRun(t, ff)); !bytes.Equal(got, golden) {
			t.Fatalf("full-fidelity at shards=%d diverged:\n got %s\nwant %s", shards, got, golden)
		}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullFidelityCatchesStaleCalibration poisons one calibration table
// entry and checks verified dispatch fails the run instead of silently
// serving from a stale table. The error must name the lowest affected
// blade and that blade's first diverging dispatch, byte-identically at
// every verification width.
func TestFullFidelityCatchesStaleCalibration(t *testing.T) {
	cal := mustCal(t)
	cfg := quickConfig()
	cfg.Requests = 24
	cfg.FullFidelity = true

	// The loop records every dispatch before verification starts; the
	// hook's last call sees the complete list.
	var jobs []verifyJob
	stepHook = func(p *pool) { jobs = append(jobs[:0], p.verify...) }
	t.Cleanup(func() { stepHook = nil })

	// A clean verified run serializes exactly like an unverified one.
	plain := cfg
	plain.Cal = cal
	plain.FullFidelity = false
	golden := marshal(t, mustRun(t, plain))
	clean := cfg
	clean.Cal = cal
	if got := marshal(t, mustRun(t, clean)); !bytes.Equal(got, golden) {
		t.Fatalf("clean full-fidelity run changed the report:\n got %s\nwant %s", got, golden)
	}

	// jobs is in dispatch (time) order. Poison an entry whose earliest
	// use in time is on a higher blade than its lowest-blade use, so the
	// expected error — the lowest affected blade's first diverging
	// dispatch — differs from the earliest divergence in time. DegTime
	// only feeds verification, so the loop replays unchanged.
	keyOf := func(j verifyJob) svcKey { return svcKey{Scheme: j.scheme, Tall: j.tall, K: j.k} }
	earliest := map[svcKey]verifyJob{}
	lowest := map[svcKey]verifyJob{}
	for _, j := range jobs {
		k := keyOf(j)
		if _, ok := earliest[k]; !ok {
			earliest[k] = j
		}
		if l, ok := lowest[k]; !ok || j.blade < l.blade {
			lowest[k] = j
		}
	}
	var first verifyJob
	found := false
	for _, j := range jobs {
		if k := keyOf(j); earliest[k] != lowest[k] {
			first, found = lowest[k], true
			break
		}
	}
	if !found {
		t.Fatal("no calibration entry is used first by a higher blade; the scenario cannot tell the orders apart")
	}
	key := keyOf(first)
	poisoned := &Calibration{
		maxBatch: cal.maxBatch,
		services: maps.Clone(cal.services),
		geoms:    cal.geoms,
		perBlade: cal.perBlade,
	}
	v := poisoned.services[key]
	v.DegTime++
	poisoned.services[key] = v

	want := fmt.Sprintf("serve: blade %d: full-fidelity dispatch #%d %s/tall=%v/k=%d diverged from calibration",
		first.blade, first.seq, key.Scheme, key.Tall, key.K)
	var msg string
	for _, shards := range []int{1, 2, 8} {
		run := cfg
		run.Cal = poisoned
		run.Shards = shards
		_, err := Run(run)
		if err == nil {
			t.Fatalf("shards=%d: poisoned calibration served without a full-fidelity error", shards)
		}
		if msg == "" {
			msg = err.Error()
			if !strings.HasPrefix(msg, want) {
				t.Fatalf("error names the wrong dispatch:\n got %s\nwant prefix %s", msg, want)
			}
		} else if err.Error() != msg {
			t.Fatalf("shards=%d: error differs:\n got %v\nwant %s", shards, err, msg)
		}
	}
}

// BenchmarkFleetAdmit times the admission loop at fleet scale with the
// calibration preset, so only routing, placement and batching are
// measured: the estimator policy, a diurnal stream at 0.6× the
// estimated capacity, and a seeded rolling-restart plan. 256 blades (64
// pools of 4, autoscaler armed) is the fleet benchmark workload's shape;
// 3 blades is the classic single pool and 1000 blades is 250 pools of 4.
// us/req and allocs/req divide by the request count.
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
		b.Run(fmt.Sprintf("blades=%d", total), func(b *testing.B) {
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
