package serve

import (
	"fmt"
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
}

// fleetState is the router + autoscaler layer over the pool's blades.
type fleetState struct {
	pools  []*poolShard
	ring   []ringEntry
	scaler *autoscaler

	visited []bool // ring-walk scratch, one slot per pool

	shedGlobal int // requests shed by global backpressure (no candidate pool)
	overrides  int // estimator frontier overrides of the hash placement
	scaleUps   int
	scaleDowns int
	activeMin  int // fewest simultaneously active pools observed
}

func newFleet(p *pool) *fleetState {
	per := p.cfg.Blades
	n := p.cfg.Pools
	f := &fleetState{
		pools:     make([]*poolShard, n),
		visited:   make([]bool, n),
		activeMin: n,
	}
	for i := range f.pools {
		f.pools[i] = &poolShard{
			id:     i,
			blades: p.blades[i*per : (i+1)*per],
			active: true,
		}
	}
	f.rebuildRing()
	return f
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

// poolHasRoom reports whether pl can take one more request: it is active
// and some admittable blade has queue space. Router candidacy predicate.
func (p *pool) poolHasRoom(pl *poolShard) bool {
	if !pl.active {
		return false
	}
	for _, b := range pl.blades {
		if b.health.admittable() && len(b.queue) < p.cfg.MaxQueue {
			return true
		}
	}
	return false
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
