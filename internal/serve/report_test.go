package serve

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cellport/internal/sim"
)

// percentileRef is the nearest-rank quantile on its own sorted copy of
// an unsorted sample: the reference percentile is checked against.
func percentileRef(sample []sim.Duration, q float64) sim.Duration {
	if len(sample) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), sample...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seeded := make([]sim.Duration, 9001)
	for i := range seeded {
		seeded[i] = sim.Duration(rng.Int63n(1 << 40))
	}
	cases := []struct {
		name   string
		sample []sim.Duration
		q      float64
		want   sim.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single p50", []sim.Duration{7}, 0.5, 7},
		{"single p99", []sim.Duration{7}, 0.99, 7},
		{"duplicates p50", []sim.Duration{3, 1, 3, 3, 2}, 0.5, 3},
		{"duplicates p20", []sim.Duration{3, 1, 3, 3, 2}, 0.2, 1},
		{"ten p95 rounds up", []sim.Duration{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.95, 10},
		{"q = 1 is the max", []sim.Duration{5, 40, 2}, 1, 40},
		{"seeded p50", seeded, 0.50, percentileRef(seeded, 0.50)},
		{"seeded p95", seeded, 0.95, percentileRef(seeded, 0.95)},
		{"seeded p99", seeded, 0.99, percentileRef(seeded, 0.99)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sorted := slices.Clone(tc.sample)
			slices.Sort(sorted)
			if got := percentile(sorted, tc.q); got != tc.want {
				t.Fatalf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
			}
			if ref := percentileRef(tc.sample, tc.q); ref != tc.want {
				t.Fatalf("reference percentile(q=%v) = %v, want %v", tc.q, ref, tc.want)
			}
		})
	}
}
