package serve

import (
	"math"
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
// with room, or nil when no pool on the ring has any. Each pool is
// evaluated at most once per walk.
func (f *fleetState) lookup(key uint64) *poolShard {
	n := len(f.ring)
	if n == 0 {
		return nil
	}
	f.gen++
	if f.gen == 0 {
		// The stamp wrapped: old slots could now read as visited.
		clear(f.visited)
		f.gen = 1
	}
	start := sort.Search(n, func(i int) bool { return f.ring[i].hash >= key })
	for i := 0; i < n; i++ {
		e := f.ring[(start+i)%n]
		if f.visited[e.pool] == f.gen {
			continue
		}
		f.visited[e.pool] = f.gen
		if pl := f.pools[e.pool]; pl.hasRoom() {
			return pl
		}
	}
	return nil
}

// routePool picks the pool for one request: the consistent-hash owner
// with room, overridden toward the earliest-frontier pool when the
// estimator is conclusive and the gap exceeds half the request's own
// service estimate (hysteresis — ties and small imbalances stay on the
// hash placement, keeping routing stable). Returns nil under global
// backpressure: no active pool has any admittable blade with queue room.
//
// Nothing here scans blades or pools. A pool's frontier is
// min(busyMin − now, idleMin) of its stored pair, so the fleet's least
// frontier is the lesser of the two min-tree roots, and the best pool —
// the lowest-index pool reaching it — is the lower index of the roots
// that do. Both roots at their sentinels is global backpressure.
func (p *pool) routePool(r Request) *poolShard {
	f := p.fleet
	busyPool, busyMin := f.busyTree.top()
	idlePool, idleMin := f.idleTree.top()
	if sim.Time(busyMin) == sim.Never && sim.Duration(idleMin) == noRoom {
		return nil
	}
	hashed := f.lookup(requestKey(r))
	if p.cfg.Policy != PolicyEstimator || !p.cal.conclusive {
		return hashed
	}
	best, bestFrontier := idlePool, sim.Duration(idleMin)
	if sim.Time(busyMin) != sim.Never {
		s := sim.Time(busyMin).Sub(p.now)
		if s < bestFrontier || (s == bestFrontier && busyPool < best) {
			best, bestFrontier = busyPool, s
		}
	}
	if best == hashed.id {
		return hashed
	}
	if hashed.frontier(p.now)-bestFrontier > p.estOne(r)/2 {
		f.overrides++
		return f.pools[best]
	}
	return hashed
}

// minTree is a tournament tree over pool index: each internal node
// holds the leaf with the least (key, index) below it, so the minimum
// is the root and changing one pool's key costs O(log pools). Padding
// leaves past the last pool hold MaxInt64 and never beat a real pool.
type minTree struct {
	key []int64 // per leaf
	win []int32 // win[1] is the root, leaves at win[len(key):]
}

func newMinTree(pools int) minTree {
	n := 1
	for n < pools {
		n <<= 1
	}
	t := minTree{key: make([]int64, n), win: make([]int32, 2*n)}
	for i := range t.key {
		t.key[i] = math.MaxInt64
		t.win[n+i] = int32(i)
	}
	for i := n - 1; i >= 1; i-- {
		t.win[i] = t.pick(t.win[2*i], t.win[2*i+1])
	}
	return t
}

// pick returns the winner of two subtrees, a holding the lower indices:
// the smaller key, a on ties.
func (t *minTree) pick(a, b int32) int32 {
	if t.key[b] < t.key[a] {
		return b
	}
	return a
}

// set changes leaf i's key and replays the matches above it.
func (t *minTree) set(i int, key int64) {
	t.key[i] = key
	for j := (len(t.key) + i) / 2; j >= 1; j /= 2 {
		t.win[j] = t.pick(t.win[2*j], t.win[2*j+1])
	}
}

// top returns the leaf with the least (key, index) and its key.
func (t *minTree) top() (int, int64) {
	w := t.win[1]
	return int(w), t.key[w]
}
