package marvel

import (
	"cellport/internal/cost"
	"cellport/internal/img"
	"cellport/internal/workcache"
)

// ArtifactCache memoizes the workload artifacts that are bit-identical
// across the points of an experiment sweep: the generated image set, the
// synthetic model library (train + encode + float32-rounded decode), and
// the sequential reference run. A Fig7-style grid of spes × scenarios ×
// variants computes each artifact exactly once; concurrent sweep workers
// (parallel.RunIndexed) share one in-flight computation per key via
// the workcache singleflight.
//
// All returned values are shared across callers and goroutines and MUST
// be treated as immutable: images are only read (the ported preprocessing
// copies rows into simulated memory, the reference extractors only scan
// pixels), model sets are only read (placement copies the encodings into
// simulated memory), and reference results are only compared against.
//
// A nil *ArtifactCache is valid and means "no caching": every accessor
// falls back to computing a private artifact (the execution backend's
// default when it is given no cache).
type ArtifactCache struct {
	images workcache.Cache[Workload, []*img.RGB]
	models workcache.Cache[uint64, *ModelSet]
	refs   workcache.Cache[refKey, *ReferenceResult]
}

// refKey identifies a reference run: the cost model's name plus the full
// workload parameters (Images, W, H, Seed). The model set is derived from
// the workload seed, so it does not appear separately in the key.
type refKey struct {
	Host string
	W    Workload
}

// sharedArtifacts is the process-wide cache used when a config supplies
// no instance of its own.
var sharedArtifacts ArtifactCache

// SharedArtifacts returns the process-wide artifact cache. Repeated
// sweeps within one process (successive paperbench experiments, repeated
// benchmark iterations) reuse its entries.
func SharedArtifacts() *ArtifactCache { return &sharedArtifacts }

// NewArtifactCache returns an empty private cache, for callers that want
// sharing within one sweep but isolation from the rest of the process.
func NewArtifactCache() *ArtifactCache { return &ArtifactCache{} }

// Images returns the workload's generated image set, shared and read-only.
func (c *ArtifactCache) Images(w Workload) []*img.RGB {
	if c == nil {
		return w.Generate()
	}
	images, _ := c.images.Do(w, func() ([]*img.RGB, error) {
		return w.Generate(), nil
	})
	return images
}

// ModelSet returns the synthetic model library for seed, shared and
// read-only.
func (c *ArtifactCache) ModelSet(seed uint64) (*ModelSet, error) {
	if c == nil {
		return NewModelSet(seed)
	}
	return c.models.Do(seed, func() (*ModelSet, error) {
		return NewModelSet(seed)
	})
}

// Reference returns the sequential reference run of workload w under the
// host cost model, shared and read-only. The model set and image set are
// resolved through the same cache, so a cold Reference call on one worker
// warms all three artifact layers for every other sweep point.
func (c *ArtifactCache) Reference(host *cost.Model, w Workload) (*ReferenceResult, error) {
	if c == nil {
		ms, err := NewModelSet(w.Seed)
		if err != nil {
			return nil, err
		}
		return RunReference(host, w, ms), nil
	}
	return c.refs.Do(refKey{Host: host.Name, W: w}, func() (*ReferenceResult, error) {
		ms, err := c.ModelSet(w.Seed)
		if err != nil {
			return nil, err
		}
		return runReference(host, w, ms, c.Images(w)), nil
	})
}

// Stats reports cumulative (hits, misses) over the three artifact layers.
func (c *ArtifactCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	for _, s := range []func() (uint64, uint64){c.images.Stats, c.models.Stats, c.refs.Stats} {
		h, m := s()
		hits += h
		misses += m
	}
	return hits, misses
}

// Flush drops all cached artifacts (cold-path calibration, tests).
func (c *ArtifactCache) Flush() {
	if c == nil {
		return
	}
	c.images.Flush()
	c.models.Flush()
	c.refs.Flush()
}
