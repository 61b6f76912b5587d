package serve

import (
	"testing"

	"cellport/internal/sim"
)

// The transition-edge audit (DESIGN.md §12/§13): every overlapping-plan
// corner of the health state machine is pinned table-driven, directly
// against applyFault on a quiescent pool. What must never happen:
// a restart fire claiming a drain it did not start (double warmup
// recharge on a blade that never restarted), a no-op transition moving
// the in-flight completion or re-accounting busy time, or a crash
// leaving a pending flag armed.

type edgeStep struct {
	kind bladeEventKind
	at   sim.Time
}

func TestLifecycleTransitionEdges(t *testing.T) {
	cases := []struct {
		name  string
		prep  func(p *pool, b *blade) // optional state injection before the steps
		steps []edgeStep

		wantHealth         health
		wantCrashes        int
		wantRestarts       int
		wantStalls         int
		wantDone           sim.Time
		wantBusyTime       sim.Duration
		wantWarm           bool
		wantRestartPending bool
		wantParkPending    bool
	}{
		{
			name:       "crash while draining cancels the restart",
			steps:      []edgeStep{{evDrainStart, 10}, {evBladeCrash, 20}, {evRestartFire, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantRestarts: 0, wantWarm: true,
		},
		{
			name:       "crash while warming",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evBladeCrash, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantRestarts: 1,
		},
		{
			name:       "double crash counts once",
			prep:       func(p *pool, b *blade) { p.startBusy(b, 0, 50) },
			steps:      []edgeStep{{evBladeCrash, 20}, {evBladeCrash, 30}},
			wantHealth: healthDown, wantCrashes: 1, wantDone: 50, wantBusyTime: 20, wantWarm: true,
		},
		{
			name:       "restart fire on an up blade is a no-op",
			steps:      []edgeStep{{evRestartFire, 10}},
			wantHealth: healthUp, wantRestarts: 0, wantWarm: true,
		},
		{
			name:       "second drain of the same blade is a no-op",
			steps:      []edgeStep{{evDrainStart, 10}, {evDrainStart, 20}, {evRestartFire, 30}},
			wantHealth: healthWarming, wantRestarts: 1,
		},
		{
			name: "restart fire cannot hijack an autoscale drain",
			prep: func(_ *pool, b *blade) {
				b.health = healthDraining
				b.parkPending = true
			},
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}},
			wantHealth: healthDraining, wantRestarts: 0, wantWarm: true,
			wantParkPending: true,
		},
		{
			name:       "double restart fire recharges warmup once",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evRestartFire, 30}},
			wantHealth: healthWarming, wantRestarts: 1, wantWarm: false,
		},
		{
			name:       "stall on a draining blade is a no-op",
			steps:      []edgeStep{{evDrainStart, 10}, {evStallStart, 20}, {evStallEnd, 30}},
			wantHealth: healthDraining, wantStalls: 0, wantWarm: true,
			wantRestartPending: true,
		},
		{
			name:       "stall end restores warming, not up",
			steps:      []edgeStep{{evDrainStart, 10}, {evRestartFire, 20}, {evStallStart, 30}, {evStallEnd, 40}},
			wantHealth: healthWarming, wantRestarts: 1, wantStalls: 1,
		},
		{
			name:  "autoscale drain arriving mid-stall resumes into draining",
			prep:  func(_ *pool, b *blade) { b.parkPending = true },
			steps: []edgeStep{{evStallStart, 10}, {evStallEnd, 20}},
			// With no queue and no in-flight work the drain parks at the
			// stall end.
			wantHealth: healthParked, wantStalls: 1, wantWarm: false,
		},
		{
			name:       "crash on a parked blade",
			prep:       func(_ *pool, b *blade) { b.health = healthParked; b.warm = false },
			steps:      []edgeStep{{evBladeCrash, 10}},
			wantHealth: healthDown, wantCrashes: 1, wantWarm: false,
		},
		{
			name:       "stall on an idle blade moves no completion",
			steps:      []edgeStep{{evStallStart, 10}, {evStallEnd, 20}},
			wantHealth: healthUp, wantStalls: 1, wantWarm: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig().withDefaults()
			cfg.Blades = 1
			p := newPool(cfg, mustCal(t), 0)
			b := p.blades[0]
			// The default pool starts cold; these edges audit a blade
			// mid-run, after its first dispatch warmed it.
			b.warm = true
			if tc.prep != nil {
				tc.prep(p, b)
			}
			for _, st := range tc.steps {
				p.now = st.at
				p.applyFault(bladeEvent{at: st.at, kind: st.kind, blade: 0, delay: 5})
			}
			if b.health != tc.wantHealth {
				t.Errorf("health = %v, want %v", b.health, tc.wantHealth)
			}
			if b.crashes != tc.wantCrashes {
				t.Errorf("crashes = %d, want %d", b.crashes, tc.wantCrashes)
			}
			if b.restarts != tc.wantRestarts {
				t.Errorf("restarts = %d, want %d", b.restarts, tc.wantRestarts)
			}
			if b.stalls != tc.wantStalls {
				t.Errorf("stalls = %d, want %d", b.stalls, tc.wantStalls)
			}
			if b.done != tc.wantDone || b.busyTime != tc.wantBusyTime {
				t.Errorf("done = %v, busyTime = %v, want %v, %v (in-flight accounting leak)",
					b.done, b.busyTime, tc.wantDone, tc.wantBusyTime)
			}
			if b.warm != tc.wantWarm {
				t.Errorf("warm = %v, want %v (warmup recharge audit)", b.warm, tc.wantWarm)
			}
			if b.restartPending != tc.wantRestartPending {
				t.Errorf("restartPending = %v, want %v", b.restartPending, tc.wantRestartPending)
			}
			if b.parkPending != tc.wantParkPending {
				t.Errorf("parkPending = %v, want %v", b.parkPending, tc.wantParkPending)
			}
		})
	}
}
