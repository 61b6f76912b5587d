package serve

import (
	"fmt"
	"math"

	"cellport/internal/sim"
)

// Fleet mode (DESIGN.md §13): the run's blades are partitioned into
// Config.Pools independent pools of Config.Blades blades each. Each pool
// keeps its own admission rotation and queue set; calibration tables
// and the event loop are shared across the fleet. A router places each arrival on a pool by
// consistent hashing of its geometry key, with an estimator-aware
// override toward the pool with the earliest estimated finish frontier;
// when no active pool has room the request is shed globally
// (shed_global — the fleet ledger's sixth term). A deterministic
// autoscaler (autoscale.go) activates and drains pools from virtual-time
// load signals, driving drains through the blade lifecycle machinery.
//
// Routing, scaling and the ring run inside the one serve event loop, so
// fleet runs stay byte-identical across -parallel.

// poolShard is one pool of the fleet: a contiguous pool-major slice of
// the run's blades plus the pool-local admission rotation.
type poolShard struct {
	id     int
	blades []*blade
	rr     int
	active bool
	routed int // arrivals and re-admissions the router sent here

	// The pool's frontier in two time-invariant parts, taken over its
	// admittable blades with queue room (refreshFrontier): busyMin is
	// the least done + queuedWork over busy blades (an absolute time,
	// Never if none), idleMin the least queuedWork over idle ones
	// (noRoom if none). An inactive pool holds both sentinels.
	busyMin sim.Time
	idleMin sim.Duration
}

// noRoom is idleMin's sentinel: no idle candidate blade.
const noRoom = sim.Duration(math.MaxInt64)

// hasRoom reports whether pl can take one more request: it is active
// and some admittable blade has queue space. Router candidacy predicate.
func (pl *poolShard) hasRoom() bool { return pl.busyMin != sim.Never || pl.idleMin != noRoom }

// frontier is the pool's earliest estimated finish at now — the least
// bladeScore over its admittable blades with queue room, which is what
// a request routed there would be waiting behind. Defined only when
// hasRoom.
func (pl *poolShard) frontier(now sim.Time) sim.Duration {
	f := pl.idleMin
	if pl.busyMin != sim.Never {
		f = min(f, pl.busyMin.Sub(now))
	}
	return f
}

// fleetState is the router + autoscaler layer over the pool's blades.
type fleetState struct {
	pools  []*poolShard
	ring   []ringEntry
	scaler *autoscaler

	// busyTree and idleTree hold every pool's busyMin and idleMin, so
	// the fleet-wide least frontier is read off their roots.
	busyTree, idleTree minTree

	// visited is the ring-walk scratch, one slot per pool: a slot equal
	// to gen was visited by the current walk.
	visited []uint32
	gen     uint32

	shedGlobal int // requests shed by global backpressure (no candidate pool)
	overrides  int // estimator frontier overrides of the hash placement
	scaleUps   int
	scaleDowns int
	activeMin  int // fewest simultaneously active pools observed
}

// initFleet installs the fleet layer on p: Pools pools over p.blades,
// every pool active, with its frontier stored and its ring vnodes laid.
func (p *pool) initFleet() {
	per := p.cfg.Blades
	n := p.cfg.Pools
	f := &fleetState{
		pools:     make([]*poolShard, n),
		busyTree:  newMinTree(n),
		idleTree:  newMinTree(n),
		visited:   make([]uint32, n),
		activeMin: n,
	}
	p.fleet = f
	for i := range f.pools {
		pl := &poolShard{
			id:      i,
			blades:  p.blades[i*per : (i+1)*per],
			active:  true,
			busyMin: sim.Never,
			idleMin: noRoom,
		}
		for _, b := range pl.blades {
			b.shard = pl
		}
		f.pools[i] = pl
		p.refreshPool(pl)
	}
	f.rebuildRing()
}

// refreshFrontier re-derives the stored frontier of b's pool after b
// changed. Every event handler that moves a blade's backlog, warmth,
// completion, health or queue length calls it once, after the change:
// admitInto, complete and applyFault (which covers dispatch, killBlade
// and maybePark inside them); activatePool and drainPool refresh the
// whole pool. A no-op on the classic single-pool path.
func (p *pool) refreshFrontier(b *blade) {
	if b.shard != nil {
		p.refreshPool(b.shard)
	}
}

// refreshPool recomputes pl's (busyMin, idleMin) pair over its blades
// and posts it to the fleet's min-trees: O(blades per pool + log pools).
func (p *pool) refreshPool(pl *poolShard) {
	busyMin, idleMin := sim.Never, noRoom
	if pl.active {
		for _, b := range pl.blades {
			if !b.health.admittable() || len(b.queue) >= p.cfg.MaxQueue {
				continue
			}
			w := p.queuedWork(b)
			if b.busy {
				busyMin = min(busyMin, b.done.Add(w))
			} else {
				idleMin = min(idleMin, w)
			}
		}
	}
	if busyMin != pl.busyMin {
		pl.busyMin = busyMin
		p.fleet.busyTree.set(pl.id, int64(busyMin))
	}
	if idleMin != pl.idleMin {
		pl.idleMin = idleMin
		p.fleet.idleTree.set(pl.id, int64(idleMin))
	}
}

// activeCount reports how many pools are currently active.
func (f *fleetState) activeCount() int {
	n := 0
	for _, pl := range f.pools {
		if pl.active {
			n++
		}
	}
	return n
}

// admitFleet is fleet-mode admission: route to a pool, then place within
// it through the normal per-pool policy order. The router guarantees the
// chosen pool has room, so the inner admission cannot fail; the
// defensive shed keeps the ledger conserved even if that invariant ever
// broke.
func (p *pool) admitFleet(r Request) {
	pl := p.routePool(r)
	if pl == nil {
		p.fleet.shedGlobal++
		if p.ctr != nil {
			p.ctr.Instant(coordLane, p.now, fmt.Sprintf("shed-global req %d (fleet backpressure)", r.ID))
		}
		return
	}
	pl.routed++
	order := p.placeOrderIn(r, pl.blades, &pl.rr)
	if p.admitInto(r, order) {
		return
	}
	p.shedRejected++
	if len(order) > 0 {
		p.recordShedRejected(order[0], r)
	}
}
