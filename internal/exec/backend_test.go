package exec

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellport/internal/cost"
	"cellport/internal/marvel"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// TestBackendBitExact is the property the whole race experiment stands
// on: the executed kernels produce exactly the host-reference features
// and decisions — for every schedule shape, batch size, variant and
// worker count. Parallelism is across independent accumulators, so the
// worker count can never change a bit of output.
func TestBackendBitExact(t *testing.T) {
	arts := marvel.NewArtifactCache()
	host := cost.NewPPE()
	scenarios := []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined}
	for _, workers := range []int{1, 0} { // serial oracle vs GOMAXPROCS
		b := NewBackend(Options{Workers: workers, Reps: 1, Artifacts: arts})
		for _, images := range []int{1, 3} {
			w := marvel.Workload{Images: images, W: 352, H: 96, Seed: 11}
			ref, err := arts.Reference(host, w)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, sc := range scenarios {
				for _, v := range []marvel.Variant{marvel.Naive, marvel.Optimized} {
					name := fmt.Sprintf("workers=%d/images=%d/%v/%v", workers, images, sc, v)
					run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: v})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(run.Images) != len(ref.Images) {
						t.Fatalf("%s: got %d images, reference has %d", name, len(run.Images), len(ref.Images))
					}
					for i := range run.Images {
						if m := marvel.CompareImageResults(&ref.Images[i], &run.Images[i]); m != 0 {
							t.Errorf("%s: image %d differs from host reference in %d fields", name, i, m)
						}
					}
					if run.WallNS <= 0 {
						t.Errorf("%s: non-positive wall time %d", name, run.WallNS)
					}
				}
			}
		}
		b.Close()
	}
}

// TestBackendRejectsBadWorkload pins the validation path.
func TestBackendRejectsBadWorkload(t *testing.T) {
	b := NewBackend(Options{Workers: 1, Reps: 1, Artifacts: marvel.NewArtifactCache()})
	defer b.Close()
	if _, err := b.Execute(marvel.ExecPoint{}); err == nil {
		t.Fatal("Execute accepted a zero workload")
	}
}

// TestBackendRejectsUnknownScenario: an out-of-range scenario is an
// error, not a silent alias for one of the four schedules.
func TestBackendRejectsUnknownScenario(t *testing.T) {
	b := NewBackend(Options{Workers: 1, Reps: 1, Artifacts: marvel.NewArtifactCache()})
	defer b.Close()
	w := marvel.Workload{Images: 1, W: 352, H: 96, Seed: 11}
	for _, sc := range []marvel.Scenario{-1, marvel.Pipelined + 1} {
		if _, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: marvel.Optimized}); err == nil {
			t.Errorf("Execute accepted Scenario(%d)", int(sc))
		}
	}
}

// TestBackendFollowsSchedule checks that the executor runs the schedule
// the simulator runs, from the instrumented run's spans: a shared
// "detect" lane exists iff the schedule does not replicate detectors,
// and a schedule that is not Parallel runs its extraction lanes one
// after another in Schedule.Order, every image.
func TestBackendFollowsSchedule(t *testing.T) {
	arts := marvel.NewArtifactCache()
	w := marvel.Workload{Images: 2, W: 352, H: 96, Seed: 11}
	for _, sc := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2, marvel.Pipelined} {
		sched, err := sc.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		var tick atomic.Int64
		b := NewBackend(Options{
			Workers:    1,
			Reps:       1,
			Artifacts:  arts,
			Instrument: true,
			Now: func() time.Duration {
				return time.Duration(tick.Add(int64(time.Millisecond)))
			},
		})
		run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: sc, Variant: marvel.Optimized})
		b.Close()
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		// Each image's extent on each lane: first start, last end.
		type extent struct{ start, end sim.Time }
		lanes := map[string]map[string]extent{}
		for _, s := range run.Trace.Spans() {
			image, _, _ := strings.Cut(s.Label, "/")
			if lanes[s.Lane] == nil {
				lanes[s.Lane] = map[string]extent{}
			}
			e, ok := lanes[s.Lane][image]
			if !ok || s.Start < e.start {
				e.start = s.Start
			}
			e.end = max(e.end, s.End)
			lanes[s.Lane][image] = e
		}
		if _, shared := lanes["detect"]; shared == sched.Replicated {
			t.Errorf("%v: detect lane present = %v, want %v (Replicated = %v)", sc, shared, !sched.Replicated, sched.Replicated)
		}
		if sched.Parallel {
			continue
		}
		for n := 0; n < w.Images; n++ {
			image := fmt.Sprintf("img%d", n)
			for i := 1; i < len(sched.Order); i++ {
				prev, next := sched.Order[i-1].String(), sched.Order[i].String()
				if p, q := lanes[prev][image], lanes[next][image]; q.start < p.end {
					t.Errorf("%v %s: lane %s starts at %d, before lane %s ends at %d (order %v)",
						sc, image, next, q.start, prev, p.end, sched.Order)
				}
			}
		}
	}
}

// TestBackendInstrumentation checks the clock-domain rules on the
// instrumented run: all metrics live in the single "exec" component and
// every trace span sits on an executor lane, never a simulator track.
// It also pins what identical runs must reproduce. One worker does not
// serialise a Pipelined run: the orchestrator preprocesses image n+1
// while the worker runs image n's lanes, so the injected clock is read
// from two goroutines (hence the atomic counter) and the cross-lane
// interleaving — and with it every clock reading — is up to the
// scheduler. What is deterministic is each lane's own span sequence.
func TestBackendInstrumentation(t *testing.T) {
	var tick atomic.Int64
	b := NewBackend(Options{
		Workers:    1,
		Reps:       2,
		Artifacts:  marvel.NewArtifactCache(),
		Instrument: true,
		Now: func() time.Duration {
			return time.Duration(tick.Add(int64(time.Millisecond)))
		},
	})
	defer b.Close()
	w := marvel.Workload{Images: 2, W: 352, H: 96, Seed: 11}
	run, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.Pipelined, Variant: marvel.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace == nil || run.Metrics == nil {
		t.Fatal("instrumented run returned no trace or metrics")
	}
	if got := run.Metrics.Components(); len(got) != 1 || got[0] != "exec" {
		t.Fatalf("exec metrics components = %v, want [exec] only (clock domains must not mix)", got)
	}
	if len(run.Trace.Spans()) == 0 {
		t.Fatal("instrumented run recorded no spans")
	}
	if run.Tasks == 0 {
		t.Fatal("run counted no tasks")
	}
	// A second identical execute must record the identical per-lane span
	// sequences.
	tick.Store(0)
	run2, err := b.Execute(marvel.ExecPoint{Workload: w, Scenario: marvel.Pipelined, Variant: marvel.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	a, b2 := laneSequences(t, run.Trace.Spans()), laneSequences(t, run2.Trace.Spans())
	if !reflect.DeepEqual(a, b2) {
		t.Fatalf("per-lane span sequences differ across identical runs:\n%v\nvs\n%v", a, b2)
	}
	if len(a["pre"]) != w.Images {
		t.Errorf("pre lane recorded %d spans, want one per image (%d)", len(a["pre"]), w.Images)
	}
	sched, err := marvel.Pipelined.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sched.Order {
		if len(a[id.String()]) == 0 {
			t.Errorf("lane %q recorded no spans (lanes: %v)", id, a)
		}
	}
}

// laneSpan is the scheduler-independent part of one recorded span.
type laneSpan struct {
	Kind  trace.Kind
	Label string
}

// laneSequences groups spans by lane in recording order, checking that
// each lane's spans are well-formed and run one after another (a lane
// is a chain of continuations, so its spans never overlap), and keeps
// only their kinds and labels.
func laneSequences(t *testing.T, spans []trace.Span) map[string][]laneSpan {
	t.Helper()
	out := map[string][]laneSpan{}
	last := map[string]sim.Time{}
	for _, s := range spans {
		if s.End < s.Start || s.Start < last[s.Lane] {
			t.Fatalf("lane %q span %q [%d, %d] overlaps or precedes the lane's previous span (ended %d)",
				s.Lane, s.Label, s.Start, s.End, last[s.Lane])
		}
		last[s.Lane] = s.End
		out[s.Lane] = append(out[s.Lane], laneSpan{Kind: s.Kind, Label: s.Label})
	}
	return out
}
