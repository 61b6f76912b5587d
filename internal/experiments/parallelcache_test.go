package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cellport/internal/marvel"
	"cellport/internal/parallel"
)

// TestParallelSharedCacheDeterminism pins satellite coverage for the
// worker pool × artifact cache interaction: HostsExp and ProfileExp
// driven through a shared ArtifactCache must produce byte-identical
// results at Parallel=1 and Parallel=8, and — because cache hits and
// misses are counted at lookup admission under singleflight — the
// hit/miss totals must be identical too, no matter how the worker
// goroutines interleave.
func TestParallelSharedCacheDeterminism(t *testing.T) {
	type expCase struct {
		name string
		run  func(cfg Config) (any, error)
	}
	cases := []expCase{
		{"hosts", func(cfg Config) (any, error) { return HostsExp(cfg) }},
		{"profile", func(cfg Config) (any, error) { return ProfileExp(cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				doc          []byte
				hits, misses uint64
			}
			measure := func(parallel int) outcome {
				t.Helper()
				cache := marvel.NewArtifactCache()
				cfg := Config{Quick: true, Seed: 20070710, Parallel: parallel, Artifacts: cache}
				res, err := tc.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				doc, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h, m := cache.Stats()
				return outcome{doc: doc, hits: h, misses: m}
			}
			seq := measure(1)
			// Several parallel repetitions: scheduling varies between runs,
			// the observable outcome must not.
			for rep := 0; rep < 3; rep++ {
				par := measure(8)
				if !bytes.Equal(par.doc, seq.doc) {
					t.Fatalf("parallel result diverged from sequential:\n par %s\n seq %s", par.doc, seq.doc)
				}
				if par.hits != seq.hits || par.misses != seq.misses {
					t.Fatalf("cache stats diverged: parallel %d/%d, sequential %d/%d",
						par.hits, par.misses, seq.hits, seq.misses)
				}
			}
			if seq.misses == 0 {
				t.Fatal("experiment never touched the artifact cache; the comparison is vacuous")
			}
		})
	}
}

// TestParallelRunnerDeterminism is the harness-level replay guarantee: the
// same seeded Fig. 7 workload produces identical per-run virtual times and
// simulator event counts whether the grid executes sequentially or on the
// worker pool. Each simulation owns a private engine, so parallel host
// execution must not perturb virtual time at all.
func TestParallelRunnerDeterminism(t *testing.T) {
	cfg := quickCfg()

	runGrid := func(workers int) []*marvel.PortedResult {
		type point struct {
			scen marvel.Scenario
			n    int
		}
		var grid []point
		for _, scen := range []marvel.Scenario{marvel.SingleSPE, marvel.MultiSPE, marvel.MultiSPE2} {
			for _, n := range cfg.setSizes() {
				grid = append(grid, point{scen, n})
			}
		}
		runs, err := parallel.RunIndexed(workers, len(grid), func(i int) (*marvel.PortedResult, error) {
			return marvel.RunPorted(marvel.PortedConfig{
				Workload:      cfg.Workload(grid[i].n),
				Scenario:      grid[i].scen,
				Variant:       marvel.Optimized,
				MachineConfig: MachineConfig(),
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}

	seq := runGrid(1)
	par := runGrid(8)
	if len(seq) != len(par) {
		t.Fatalf("run counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Total != p.Total || s.OneTime != p.OneTime || s.PerImage != p.PerImage {
			t.Errorf("run %d: virtual times diverge: seq{%v %v %v} par{%v %v %v}",
				i, s.Total, s.OneTime, s.PerImage, p.Total, p.OneTime, p.PerImage)
		}
		if s.EventCount != p.EventCount {
			t.Errorf("run %d: EventCount %d (seq) vs %d (par)", i, s.EventCount, p.EventCount)
		}
		if !reflect.DeepEqual(s.KernelTime, p.KernelTime) {
			t.Errorf("run %d: kernel times diverge", i)
		}
	}

	// The assembled figure must also be byte-identical between the
	// sequential path and the parallel harness.
	seqCfg, parCfg := cfg, cfg
	seqCfg.Parallel, parCfg.Parallel = 1, 8
	a, err := Fig7(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig7 sequential vs parallel results differ")
	}
}
