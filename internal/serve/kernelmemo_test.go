package serve

import (
	"reflect"
	"testing"

	"cellport/internal/marvel"
)

// TestKernelMemoCalibrateEquivalence calibrates twice on one shared
// cache (the second pass serves every extraction from the kernel output
// memo) and once with a fresh cache per point, and requires the same
// MeasuredService table, estimator fit and derived picks.
func TestKernelMemoCalibrateEquivalence(t *testing.T) {
	cfg := quickConfig()
	shared := cfg.Artifacts
	first, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := shared.OutputStats()
	warm, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1, _ := shared.OutputStats(); h1 == h0 {
		t.Fatal("warm calibration made no memo hits: the comparison is vacuous")
	}
	if !reflect.DeepEqual(warm, first) {
		t.Fatal("warm calibration differs from the first one on the same cache")
	}

	// Fresh cache per point: every simulation computes every kernel. The
	// single-SPE run feeds the estimator fit through its kernel times.
	d := cfg.withDefaults()
	for _, tall := range []bool{false, true} {
		pc := d.portedConfig(marvel.SingleSPE, tall, 1, false)
		pc.Artifacts = marvel.NewArtifactCache()
		single, err := marvel.RunPorted(pc)
		if err != nil {
			t.Fatal(err)
		}
		pc.Artifacts = shared
		again, err := marvel.RunPorted(pc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.KernelTime, again.KernelTime) || single.EventCount != again.EventCount {
			t.Fatalf("tall=%v: single-SPE calibration run differs fresh vs shared cache", tall)
		}
		for s := Scheme(0); s < numSchemes; s++ {
			for k := 1; k <= d.MaxBatch; k++ {
				pc := d.RacePointConfig(s, tall, k)
				pc.Artifacts = marvel.NewArtifactCache()
				p, err := marvel.RunPorted(pc)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := p.Total-p.OneTime, warm.MeasuredService(s, tall, k); got != want {
					t.Errorf("%s tall=%v k=%d: fresh-cache service %v, table %v", s, tall, k, got, want)
				}
			}
		}
	}
}
