package serve

import (
	"sort"

	"cellport/internal/sim"
)

// The fleet router: consistent hashing of request geometry over a vnode
// ring of the active pools, with an estimator-aware override. Hashing
// gives stable, membership-tolerant placement (a pool draining or
// activating only moves the keys that hashed to it); the override is the
// paper's Eqs. 1-3 "is this worth it" check promoted to fleet scope —
// when the hashed pool's estimated finish frontier trails the best
// pool's by more than half a request's service estimate, the migration
// is worth it and the request follows the estimator instead.

// vnodesPerPool spreads each pool over the ring so membership changes
// rebalance smoothly; 16 keeps the ring tiny while bounding per-pool
// load skew.
const vnodesPerPool = 16

// ringEntry is one virtual node: a pool replica at a hashed position.
type ringEntry struct {
	hash uint64
	pool int
}

// mix64 is the splitmix64 finalizer as a standalone hash — the same
// mixing the load generator's PRNG uses, reused so the router adds no
// new hashing primitive.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// requestKey hashes the request's routing geometry: its identity and
// frame class. Every re-admission of the same request hashes to the same
// ring position, so retries probe the same pool first unless membership
// or load moved underneath them.
func requestKey(r Request) uint64 {
	k := uint64(r.ID) << 1
	if r.Tall {
		k |= 1
	}
	return mix64(k + 0x9e3779b97f4a7c15)
}

// rebuildRing rebuilds the vnode ring from the active pools. Called only
// on membership changes (activate/drain), never per request; sorted by
// (hash, pool) for a total deterministic order.
func (f *fleetState) rebuildRing() {
	f.ring = f.ring[:0]
	for _, pl := range f.pools {
		if !pl.active {
			continue
		}
		for v := 0; v < vnodesPerPool; v++ {
			h := mix64(uint64(pl.id)<<32 | uint64(v) | 0x517cc1b727220a95)
			f.ring = append(f.ring, ringEntry{hash: h, pool: pl.id})
		}
	}
	sort.Slice(f.ring, func(a, b int) bool {
		if f.ring[a].hash != f.ring[b].hash {
			return f.ring[a].hash < f.ring[b].hash
		}
		return f.ring[a].pool < f.ring[b].pool
	})
}

// lookup walks the ring clockwise from key and returns the first pool
// satisfying ok, or nil when no pool on the ring does. Each pool is
// evaluated at most once per walk.
func (f *fleetState) lookup(key uint64, ok func(*poolShard) bool) *poolShard {
	n := len(f.ring)
	if n == 0 {
		return nil
	}
	for i := range f.visited {
		f.visited[i] = false
	}
	start := sort.Search(n, func(i int) bool { return f.ring[i].hash >= key })
	for i := 0; i < n; i++ {
		e := f.ring[(start+i)%n]
		if f.visited[e.pool] {
			continue
		}
		f.visited[e.pool] = true
		if pl := f.pools[e.pool]; ok(pl) {
			return pl
		}
	}
	return nil
}

// poolFrontier is the pool's earliest estimated finish across its
// admittable blades with queue room — what a request routed there now
// would be waiting behind.
func (p *pool) poolFrontier(pl *poolShard) (sim.Duration, bool) {
	var best sim.Duration
	found := false
	for _, b := range pl.blades {
		if !b.health.admittable() || len(b.queue) >= p.cfg.MaxQueue {
			continue
		}
		if s := p.bladeScore(b); !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

// routePool picks the pool for one request: the consistent-hash owner
// with room, overridden toward the earliest-frontier pool when the
// estimator is conclusive and the gap exceeds half the request's own
// service estimate (hysteresis — ties and small imbalances stay on the
// hash placement, keeping routing stable). Returns nil under global
// backpressure: no active pool has any admittable blade with queue room.
//
// The estimator sweep is one pass over the active pools: poolFrontier
// finds a frontier exactly when poolHasRoom holds, so it doubles as the
// candidacy check, and the hashed pool's frontier is read on the way.
func (p *pool) routePool(r Request) *poolShard {
	f := p.fleet
	hashed := f.lookup(requestKey(r), p.poolHasRoom)
	if hashed == nil {
		return nil
	}
	if p.cfg.Policy != PolicyEstimator || !p.cal.conclusive {
		return hashed
	}
	var best *poolShard
	var bestFrontier, hashedFrontier sim.Duration
	for _, pl := range f.pools {
		if !pl.active {
			continue
		}
		s, ok := p.poolFrontier(pl)
		if !ok {
			continue
		}
		if pl == hashed {
			hashedFrontier = s
		}
		if best == nil || s < bestFrontier {
			best, bestFrontier = pl, s
		}
	}
	if best == hashed {
		return hashed
	}
	if hashedFrontier-bestFrontier > p.estOne(r)/2 {
		f.overrides++
		return best
	}
	return hashed
}
