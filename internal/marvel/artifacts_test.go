package marvel

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"cellport/internal/cost"
)

func TestArtifactCacheSharesPointers(t *testing.T) {
	c := NewArtifactCache()
	w := testWorkload(2)

	if a, b := c.Images(w), c.Images(w); len(a) != 2 || &a[0] != &b[0] {
		t.Fatal("Images not shared across lookups")
	}
	ma, err := c.ModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := c.ModelSet(w.Seed)
	if ma != mb {
		t.Fatal("ModelSet not shared across lookups")
	}
	ra, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := c.Reference(cost.NewPPE(), w)
	if ra != rb {
		t.Fatal("Reference not shared across lookups")
	}
	// A different host model is a different artifact.
	rd, err := c.Reference(cost.NewDesktop(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rd == ra || rd.Host == ra.Host {
		t.Fatal("Desktop reference must be distinct from the PPE one")
	}
}

func TestArtifactCacheNilIsColdPath(t *testing.T) {
	var c *ArtifactCache
	w := testWorkload(1)
	if a, b := c.Images(w), c.Images(w); &a[0] == &b[0] {
		t.Fatal("nil cache must regenerate images per call")
	}
	ref, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Host != "PPE" || len(ref.Images) != 1 {
		t.Fatalf("nil-cache reference malformed: host %q, %d images", ref.Host, len(ref.Images))
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats = %d/%d, want 0/0", h, m)
	}
	if h, m := c.OutputStats(); h != 0 || m != 0 {
		t.Fatalf("nil cache output stats = %d/%d, want 0/0", h, m)
	}
	c.Flush() // must not panic
}

// TestArtifactCacheFlushDropsOutputs: Flush empties the kernel output
// memo along with the other layers, so the next run computes every
// kernel again; OutputStats keeps counting across it.
func TestArtifactCacheFlushDropsOutputs(t *testing.T) {
	c := NewArtifactCache()
	cfg := PortedConfig{Workload: testWorkload(1), Scenario: SingleSPE, Variant: Optimized, MachineConfig: testMachineConfig(), Artifacts: c}
	mustRun(t, cfg)
	if h, m := c.OutputStats(); h != 0 || m != 4 {
		t.Fatalf("cold run: output stats %d/%d, want 0 hits / 4 misses", h, m)
	}
	mustRun(t, cfg)
	if h, m := c.OutputStats(); h != 4 || m != 4 {
		t.Fatalf("warm run: output stats %d/%d, want 4 hits / 4 misses", h, m)
	}
	c.Flush()
	mustRun(t, cfg)
	if h, m := c.OutputStats(); h != 4 || m != 8 {
		t.Fatalf("run after Flush: output stats %d/%d, want 4 hits / 8 misses", h, m)
	}
}

// TestArtifactCacheMatchesUncached is the tentpole identity check on the
// artifact layer itself: cached artifacts must be bit-identical to ones
// computed cold.
func TestArtifactCacheMatchesUncached(t *testing.T) {
	w := testWorkload(2)
	c := NewArtifactCache()

	cached, err := c.Reference(cost.NewPPE(), w)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewModelSet(w.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cold := RunReference(cost.NewPPE(), w, ms)
	if cached.Total != cold.Total || cached.OneTime != cold.OneTime || cached.PerImage != cold.PerImage {
		t.Fatalf("cached reference timing differs: %+v vs %+v", cached.Total, cold.Total)
	}
	if len(cached.Images) != len(cold.Images) {
		t.Fatalf("image counts differ: %d vs %d", len(cached.Images), len(cold.Images))
	}
	for i := range cached.Images {
		a, b := &cold.Images[i], &cached.Images[i]
		if !reflect.DeepEqual(a.CH, b.CH) || !reflect.DeepEqual(a.CC, b.CC) ||
			!reflect.DeepEqual(a.EH, b.EH) || !reflect.DeepEqual(a.TX, b.TX) ||
			a.Scores != b.Scores {
			t.Fatalf("image %d outputs differ between cached and cold reference", i)
		}
	}
}

func TestArtifactCacheConcurrentReference(t *testing.T) {
	c := NewArtifactCache()
	w := testWorkload(1)
	const workers = 8
	refs := make([]*ReferenceResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Reference(cost.NewPPE(), w)
			if err != nil {
				t.Error(err)
			}
			refs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if refs[i] != refs[0] {
			t.Fatal("concurrent Reference callers must share one result")
		}
	}
	// One miss per layer (images, model set, reference); everything else
	// is hits.
	if _, misses := c.Stats(); misses != 3 {
		t.Fatalf("misses = %d, want 3 (one per artifact layer)", misses)
	}
}

func TestRunPortedEmptyWorkload(t *testing.T) {
	_, err := RunPorted(PortedConfig{
		Workload:      Workload{Images: 0, W: 352, H: 96, Seed: 1},
		Scenario:      SingleSPE,
		Variant:       Optimized,
		MachineConfig: testMachineConfig(),
	})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("err = %v, want ErrEmptyWorkload", err)
	}
	_, err = RunPorted(PortedConfig{
		Workload:      Workload{Images: -1, W: 352, H: 96, Seed: 1},
		Scenario:      Pipelined,
		MachineConfig: testMachineConfig(),
	})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("negative image count: err = %v, want ErrEmptyWorkload", err)
	}
}

// TestStartPortedRejectsEmptyWorkload keeps the validation contract on a
// config that names only a scenario: the zero workload is rejected before
// any machine is built.
func TestStartPortedRejectsEmptyWorkload(t *testing.T) {
	_, err := RunPorted(PortedConfig{Scenario: SingleSPE})
	if !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("err = %v, want ErrEmptyWorkload", err)
	}
}

// TestPortedCacheOnOffIdentical asserts the acceptance criterion: runs
// sharing one artifact cache (the second one hitting it) and a cold run
// on a fresh private cache produce byte-identical feature outputs,
// identical virtual times, and the same EventCount replay fingerprint.
func TestPortedCacheOnOffIdentical(t *testing.T) {
	for _, scen := range []Scenario{SingleSPE, MultiSPE2, Pipelined} {
		base := PortedConfig{
			Workload:      testWorkload(2),
			Scenario:      scen,
			Variant:       Optimized,
			Validate:      true,
			MachineConfig: testMachineConfig(),
		}
		warm := base
		warm.Artifacts = NewArtifactCache()
		cold := base
		cold.Artifacts = NewArtifactCache()

		a, err := RunPorted(warm)
		if err != nil {
			t.Fatalf("%v cached: %v", scen, err)
		}
		// Second cached run actually exercises the hit path.
		a2, err := RunPorted(warm)
		if err != nil {
			t.Fatalf("%v cached(2): %v", scen, err)
		}
		b, err := RunPorted(cold)
		if err != nil {
			t.Fatalf("%v cold: %v", scen, err)
		}
		for _, got := range []*PortedResult{a2, b} {
			if got.Total != a.Total || got.OneTime != a.OneTime || got.PerImage != a.PerImage {
				t.Fatalf("%v: virtual times differ cache-on vs cache-off", scen)
			}
			if got.EventCount != a.EventCount {
				t.Fatalf("%v: EventCount %d vs %d — replay fingerprint changed", scen, got.EventCount, a.EventCount)
			}
			if got.ValidationErrors != 0 || a.ValidationErrors != 0 {
				t.Fatalf("%v: validation errors (%d, %d)", scen, a.ValidationErrors, got.ValidationErrors)
			}
			if len(got.Images) != len(a.Images) {
				t.Fatalf("%v: image result counts differ", scen)
			}
			for i := range a.Images {
				if compareImage(&a.Images[i], &got.Images[i]) != 0 {
					t.Fatalf("%v image %d: feature outputs differ cache-on vs cache-off", scen, i)
				}
			}
		}
		if hits, misses := warm.Artifacts.Stats(); hits == 0 || misses != 3 {
			t.Fatalf("%v: cache stats %d hits / %d misses — second run did not hit", scen, hits, misses)
		}
	}
}
