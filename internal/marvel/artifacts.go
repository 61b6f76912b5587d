package marvel

import (
	"sync"

	"cellport/internal/cost"
	"cellport/internal/img"
	"cellport/internal/mainmem"
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
// A fourth layer memoizes extraction kernel outputs (see outputKey): a
// simulated kernel that finds its output there still issues every DMA
// and charge but skips the feature math.
//
// A nil *ArtifactCache is valid and means "no caching": every accessor
// falls back to computing a private artifact (the execution backend's
// default when it is given no cache).
type ArtifactCache struct {
	images workcache.Cache[Workload, []*img.RGB]
	models workcache.Cache[uint64, *ModelSet]
	refs   workcache.Cache[refKey, *ReferenceResult]

	// The output memo has no singleflight: a computing kernel yields to
	// its simulation engine between slices, so two engines that each
	// waited on a key the other is computing would deadlock. A lookup
	// that misses computes, and the first store of a key wins.
	outMu              sync.Mutex
	outputs            map[outputKey][]byte
	outHits, outMisses uint64
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

// imageID identifies one corpus image by everything img.Synthesize reads.
type imageID struct {
	Seed uint64 // img.CorpusSeed(workload seed, corpus index)
	W, H int
}

// outputKey identifies one extraction kernel invocation's output. The
// kernel, its slice budget and the payload rows fix the slice plan, so
// the first invocation with a key proves "sliced result equals the
// full-image result" for that plan (under Validate) and later ones reuse
// the words it wrote.
type outputKey struct {
	Image   imageID
	Kernel  KernelID
	Variant Variant
	Budget  int // slice budget in transferred rows
	Y0, Y1  int // payload rows
	Raw     bool
}

// output returns the memoized output bytes for k (nil on a miss),
// counting the lookup.
func (c *ArtifactCache) output(k outputKey) []byte {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	b, ok := c.outputs[k]
	if ok {
		c.outHits++
	} else {
		c.outMisses++
	}
	return b
}

// storeOutput memoizes b under k unless k already has an entry: the
// first writer wins. b must not be modified afterwards.
func (c *ArtifactCache) storeOutput(k outputKey, b []byte) {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.outputs == nil {
		c.outputs = make(map[outputKey][]byte)
	}
	if _, ok := c.outputs[k]; !ok {
		c.outputs[k] = b
	}
}

// OutputStats reports cumulative (hits, misses) of the kernel output
// memo. Unlike Stats, concurrent runs that miss the same key both count
// a miss, so the totals can vary with worker interleaving.
func (c *ArtifactCache) OutputStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.outMu.Lock()
	defer c.outMu.Unlock()
	return c.outHits, c.outMisses
}

// kernelMemo connects one simulation's extraction kernels to a cache's
// output memo. The driver records which corpus image it placed in each
// pixel buffer; a kernel finds its image by the buffer address in its
// header. A nil *kernelMemo memoizes nothing: kernels always compute.
type kernelMemo struct {
	cache  *ArtifactCache
	w      Workload
	placed map[mainmem.Addr]int // pixel buffer EA → corpus index
}

// newKernelMemo returns a memo over c for workload w's images, or nil
// when c is nil.
func newKernelMemo(c *ArtifactCache, w Workload) *kernelMemo {
	if c == nil {
		return nil
	}
	return &kernelMemo{cache: c, w: w, placed: make(map[mainmem.Addr]int)}
}

// place records that the pixel buffer at ea now holds corpus image n.
func (m *kernelMemo) place(ea mainmem.Addr, n int) {
	if m != nil {
		m.placed[ea] = n
	}
}

// lookup completes k's image seed from the pixel buffer at pixEA and
// returns the memoized output (nil on a miss). k.Image carries the
// header's frame size. ok is false when the invocation cannot be
// memoized: no memo, no image placed at pixEA, or a frame size that is
// not the workload's.
func (m *kernelMemo) lookup(pixEA mainmem.Addr, k outputKey) (key outputKey, out []byte, ok bool) {
	if m == nil || k.Image.W != m.w.W || k.Image.H != m.w.H {
		return k, nil, false
	}
	n, ok := m.placed[pixEA]
	if !ok {
		return k, nil, false
	}
	k.Image.Seed = img.CorpusSeed(m.w.Seed, n)
	return k, m.cache.output(k), true
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

// Flush drops all cached artifacts and memoized kernel outputs
// (cold-path calibration, tests).
func (c *ArtifactCache) Flush() {
	if c == nil {
		return
	}
	c.images.Flush()
	c.models.Flush()
	c.refs.Flush()
	c.outMu.Lock()
	c.outputs = nil
	c.outMu.Unlock()
}
