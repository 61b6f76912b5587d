package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"cellport/internal/cell"
	"cellport/internal/marvel"
	"cellport/internal/parallel"
	"cellport/internal/serve"
	"cellport/internal/trace"
)

// memoRun is what one ported run reports that the kernel output memo
// must not change.
type memoRun struct {
	doc     []byte
	events  uint64
	chrome  []byte
	service int64
}

// runMemoPoints runs every point on the worker pool with a trace
// recorder attached. A nil cache gives each point a fresh one, so every
// kernel computes; otherwise all points share arts.
func runMemoPoints(t *testing.T, pcs []marvel.PortedConfig, arts *marvel.ArtifactCache) []memoRun {
	t.Helper()
	runs, err := parallel.RunIndexed(4, len(pcs), func(i int) (memoRun, error) {
		pc := pcs[i]
		pc.Artifacts = arts
		if arts == nil {
			pc.Artifacts = marvel.NewArtifactCache()
		}
		mc := cell.DefaultConfig()
		if pc.MachineConfig != nil {
			mc = *pc.MachineConfig
		}
		rec := trace.NewRecorder()
		mc.Tracer = rec
		pc.MachineConfig = &mc
		res, err := marvel.RunPorted(pc)
		if err != nil {
			return memoRun{}, err
		}
		doc, err := json.Marshal(res)
		if err != nil {
			return memoRun{}, err
		}
		var chrome bytes.Buffer
		err = trace.WriteChrome(&chrome, []trace.ChromeProcess{{Pid: 1, Name: "run", Rec: rec}})
		return memoRun{doc, res.EventCount, chrome.Bytes(), int64(res.Total - res.OneTime)}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// checkMemoPoints runs pcs on a fresh cache per point and twice on one
// shared cache, and requires identical results from all three sweeps.
func checkMemoPoints(t *testing.T, pcs []marvel.PortedConfig) []memoRun {
	t.Helper()
	fresh := runMemoPoints(t, pcs, nil)
	shared := marvel.NewArtifactCache()
	cold := runMemoPoints(t, pcs, shared)
	h0, _ := shared.OutputStats()
	warm := runMemoPoints(t, pcs, shared)
	if h1, _ := shared.OutputStats(); h1 == h0 {
		t.Fatal("warm sweep made no memo hits: the comparison is vacuous")
	}
	for i := range pcs {
		for _, got := range []struct {
			name string
			r    memoRun
		}{{"shared", cold[i]}, {"warm", warm[i]}} {
			want := fresh[i]
			if !bytes.Equal(got.r.doc, want.doc) {
				t.Errorf("point %d %s: PortedResult JSON differs from fresh-cache run", i, got.name)
			}
			if got.r.events != want.events {
				t.Errorf("point %d %s: EventCount %d, fresh %d", i, got.name, got.r.events, want.events)
			}
			if !bytes.Equal(got.r.chrome, want.chrome) {
				t.Errorf("point %d %s: Chrome trace differs from fresh-cache run", i, got.name)
			}
		}
	}
	return fresh
}

// TestKernelMemoFig7Equivalence: every point of the quick Fig 7 grid
// gives the same result, event count and trace with a shared, warm
// kernel output memo as with a fresh cache, and so does the figure.
func TestKernelMemoFig7Equivalence(t *testing.T) {
	cfg := quickCfg()
	var pcs []marvel.PortedConfig
	for _, scen := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2} {
		for _, n := range cfg.setSizes() {
			pcs = append(pcs, cfg.ported(cfg.Workload(n), scen, marvel.Optimized))
		}
	}
	checkMemoPoints(t, pcs)

	figure := func(arts *marvel.ArtifactCache) []byte {
		c := cfg
		c.Artifacts = arts
		res, err := Fig7(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	shared := marvel.NewArtifactCache()
	want := figure(marvel.NewArtifactCache())
	for pass := 0; pass < 2; pass++ {
		if got := figure(shared); !bytes.Equal(got, want) {
			t.Fatalf("Fig 7 pass %d on a shared cache differs from a fresh-cache run", pass)
		}
	}
}

// TestKernelMemoRaceEquivalence: all 16 race points of the full-size
// serving configuration (2 geometries × 2 schemes × batch 1-4) give the
// same result, event count and trace on a shared, warm memo as on a
// fresh cache per point, and the fresh runs reproduce the service table
// Calibrate measures on one shared cache.
func TestKernelMemoRaceEquivalence(t *testing.T) {
	cfg := Config{Seed: 7, Parallel: 4, Artifacts: marvel.NewArtifactCache()}
	base, err := cfg.serveBase()
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		s    serve.Scheme
		tall bool
		k    int
	}
	var points []point
	var pcs []marvel.PortedConfig
	for _, tall := range []bool{false, true} {
		for _, s := range []serve.Scheme{serve.SchemeJob, serve.SchemeData} {
			for k := 1; k <= base.MaxBatch; k++ {
				points = append(points, point{s, tall, k})
				pcs = append(pcs, base.RacePointConfig(s, tall, k))
			}
		}
	}
	if len(pcs) != 16 {
		t.Fatalf("%d race points, want 16", len(pcs))
	}
	fresh := checkMemoPoints(t, pcs)

	for pass := 0; pass < 2; pass++ {
		cal, err := serve.Calibrate(base)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if got := int64(cal.MeasuredService(p.s, p.tall, p.k)); got != fresh[i].service {
				t.Errorf("pass %d %s tall=%v k=%d: MeasuredService %d, fresh-cache run %d",
					pass, p.s, p.tall, p.k, got, fresh[i].service)
			}
		}
	}
	if hits, _ := cfg.Artifacts.OutputStats(); hits == 0 {
		t.Fatal("the second calibration made no memo hits")
	}
}
