package marvel

import (
	"errors"
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/fault"
	"cellport/internal/img"
	"cellport/internal/mainmem"
	"cellport/internal/metrics"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// Scenario selects the §5.5 scheduling scheme. What a scenario means
// to a per-image driver is its Schedule, defined once in the scenarios
// table below.
type Scenario int

// The three evaluated scenarios.
const (
	// SingleSPE: all kernels execute sequentially — no task parallelism
	// between SPEs (scenario 1, Fig. 4b). Kernels stay resident on their
	// own SPEs to avoid dynamic code switching, exactly as the paper
	// describes.
	SingleSPE Scenario = iota
	// MultiSPE: the four feature extractions run in parallel on four
	// SPEs; all concept detections run sequentially on a fifth
	// (scenario 2, Fig. 4c).
	MultiSPE
	// MultiSPE2: extractions run in parallel and the detection kernel is
	// replicated on four more SPEs so each extraction is immediately
	// followed by its own detection (scenario 3).
	MultiSPE2
	// Pipelined is an EXTENSION beyond the paper's three scenarios: the
	// §4.2 observation that "the execution model should increase
	// concurrency by using several SPEs and the PPE in parallel" applied
	// across images — the PPE preprocesses image i+1 (disk read, decode)
	// into a second pixel buffer while the SPEs process image i. Since
	// per-image preprocessing is about twice the parallel extraction
	// time, it dominates the ported application's critical path; this
	// schedule hides the SPE work behind it almost entirely.
	Pipelined
)

// Schedule is what a Scenario means to a per-image driver. The
// simulated port (runSchedule) and the real-execution backend
// (internal/exec) both read it, so the two clocks run one schedule.
type Schedule struct {
	// Order is the order the four extractions issue in; detections
	// follow the same order. The slice is shared: do not modify it.
	Order []KernelID
	// Parallel issues all four extractions before collecting any;
	// otherwise each runs to completion before the next issues.
	Parallel bool
	// Replicated gives each feature its own detector (SPE4-7), fed as
	// soon as its extraction completes; otherwise one shared detector
	// (SPE4) runs the four detections serially after the extractions.
	Replicated bool
	// Overlap preprocesses image n+1 into a second pixel buffer while
	// the SPEs work on image n.
	Overlap bool
}

var (
	// listingOrder is the paper's kernel listing order of the four
	// extraction kernels.
	listingOrder = KernelIDs[:KCD]
	// completionOrder lists them in expected-completion order for the
	// parallel scenarios (shortest first, the correlogram last).
	completionOrder = []KernelID{KCH, KTX, KEH, KCC}
)

// scenarios defines every Scenario: its name and its Schedule.
var scenarios = [...]struct {
	name  string
	sched Schedule
}{
	SingleSPE: {"single-spe", Schedule{Order: listingOrder}},
	MultiSPE:  {"multi-spe", Schedule{Order: completionOrder, Parallel: true}},
	MultiSPE2: {"multi-spe2", Schedule{Order: completionOrder, Parallel: true, Replicated: true}},
	Pipelined: {"pipelined", Schedule{Order: completionOrder, Parallel: true, Replicated: true, Overlap: true}},
}

func (s Scenario) valid() bool { return s >= 0 && int(s) < len(scenarios) }

func (s Scenario) String() string {
	if !s.valid() {
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
	return scenarios[s].name
}

// Schedule returns the scenario's schedule; an out-of-range Scenario is
// an error.
func (s Scenario) Schedule() (Schedule, error) {
	if !s.valid() {
		return Schedule{}, fmt.Errorf("marvel: unknown scenario %d", int(s))
	}
	return scenarios[s].sched, nil
}

// PortedConfig configures a ported-application run.
type PortedConfig struct {
	Workload Workload
	Scenario Scenario
	Variant  Variant
	// Validate compares every kernel output with the reference
	// computation (the "application functional at all times" check).
	Validate bool
	// MachineConfig overrides the default machine when non-nil.
	MachineConfig *cell.Config
	// Artifacts selects the cache used for the image set, model set, and
	// (when Validate is set) the reference run. Nil means the process-wide
	// SharedArtifacts cache; a fresh NewArtifactCache gives a cold run.
	Artifacts *ArtifactCache
	// Faults, when non-empty, arms deterministic fault injection and the
	// self-healing supervision loop. A nil or empty plan leaves every
	// fault hook uninstalled: the run is byte-identical to one without
	// fault support.
	Faults *fault.Plan
	// Watchdog overrides the supervision watchdog timeout (zero selects
	// DefaultWatchdog). Only consulted when Faults is armed.
	Watchdog sim.Duration
	// Exec, when non-nil, additionally runs the point's kernels for real
	// on the execution backend after the simulation finishes, attaching
	// the measured run to PortedResult.Exec. The simulated half is
	// untouched: virtual-time results are byte-identical with or without
	// a backend.
	Exec ExecBackend
}

// ErrEmptyWorkload is returned by RunPorted when the workload has no
// images: the per-image averages (PerImage, KernelTime) would be
// meaningless and the schedules have nothing to execute.
var ErrEmptyWorkload = errors.New("marvel: workload has no images")

// artifacts resolves the cache a run should use: an explicit instance
// wins, and the default is the process-wide shared cache.
func (cfg *PortedConfig) artifacts() *ArtifactCache {
	if cfg.Artifacts != nil {
		return cfg.Artifacts
	}
	return SharedArtifacts()
}

// PortedResult reports a ported run.
type PortedResult struct {
	Scenario Scenario
	Variant  Variant
	// Total includes the one-time overhead; PerImage excludes it.
	Total    sim.Duration
	OneTime  sim.Duration
	PerImage sim.Duration
	// KernelTime is the average per-image PPE-observed round-trip time of
	// each kernel (detection summed over the four features). Meaningful
	// for SingleSPE, where invocations do not overlap.
	KernelTime map[KernelID]sim.Duration
	// Images holds the outputs read back from the wrappers.
	Images []ImageResult
	// ValidationErrors counts mismatches against the reference outputs.
	ValidationErrors int
	// SPEBusy reports each SPE's accumulated compute time.
	SPEBusy []sim.Duration
	// EventCount is the simulator's total dispatched-event count for the
	// run — a replay fingerprint: identical inputs must reproduce it
	// exactly, whether the run executed sequentially or inside the
	// parallel experiment harness.
	EventCount uint64
	// Faults is the structured fault report (nil when no plan was armed):
	// what was injected and how the supervision loop recovered.
	Faults *fault.Report
	// Trace holds the run's recorded spans and instants when the machine
	// was configured with a *trace.Recorder. Excluded from JSON so -json
	// artifacts are byte-identical with instrumentation on or off.
	Trace *trace.Recorder `json:"-"`
	// Metrics is the end-of-run snapshot when the machine was configured
	// with a registry. Excluded from JSON for the same reason.
	Metrics *metrics.Snapshot `json:"-"`
	// Exec is the real-execution run when the config carried a backend
	// (wall-clock domain). Excluded from JSON so -json artifacts are
	// byte-identical whether or not a backend raced the simulation.
	Exec *ExecRun `json:"-"`
}

// RunPorted executes the ported MARVEL application on a simulated Cell.
// With an execution backend configured, the same point then runs for
// real and the measured run rides along on the result.
func RunPorted(cfg PortedConfig) (*PortedResult, error) {
	w := cfg.Workload
	if w.Images <= 0 {
		return nil, fmt.Errorf("%w (Workload.Images = %d)", ErrEmptyWorkload, w.Images)
	}
	sched, err := cfg.Scenario.Schedule()
	if err != nil {
		return nil, err
	}
	mcfg := cell.DefaultConfig()
	if cfg.MachineConfig != nil {
		mcfg = *cfg.MachineConfig
	}
	machine := cell.New(mcfg)
	defer machine.Release()
	arts := cfg.artifacts()
	images := arts.Images(w)
	ms, err := arts.ModelSet(w.Seed)
	if err != nil {
		return nil, err
	}
	var ref *ReferenceResult
	if cfg.Validate {
		ref, err = arts.Reference(mcfg.PPEModel, w)
		if err != nil {
			return nil, err
		}
	}

	res := &PortedResult{
		Scenario:   cfg.Scenario,
		Variant:    cfg.Variant,
		KernelTime: make(map[KernelID]sim.Duration),
	}
	var inj *fault.Injector
	if !cfg.Faults.Empty() {
		inj = fault.NewInjector(machine.Engine, cfg.Faults, mcfg.NumSPEs)
		machine.InjectFaults(inj)
	}
	var runErr error
	var ppeBusy sim.Duration
	elapsed, err := machine.RunMain("marvel", func(ctx *cell.Context) {
		runErr = portedMain(ctx, cfg, sched, inj, images, ms, ref, res)
		ppeBusy = ctx.BusyTime()
	})
	if err != nil {
		return nil, fmt.Errorf("marvel: simulation: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Total = elapsed
	if n := len(images); n > 0 {
		res.PerImage = (res.Total - res.OneTime) / sim.Duration(n)
		for id := range res.KernelTime {
			res.KernelTime[id] /= sim.Duration(n)
		}
	}
	for _, s := range machine.SPEs {
		res.SPEBusy = append(res.SPEBusy, s.BusyTime())
	}
	res.EventCount = machine.Engine.EventCount
	if inj != nil {
		res.Faults = inj.Report()
	}
	// Post-run observability harvest: pure bookkeeping over completed
	// counters, after the engine has stopped — it cannot affect the replay
	// fingerprint captured above.
	if reg := mcfg.Metrics; reg != nil {
		machine.HarvestMetrics(elapsed)
		reg.Counter("ppe", "busy_fs").Add(int64(ppeBusy))
		if res.Faults != nil {
			rep := res.Faults
			reg.Counter("supervisor", "faults_planned").Add(int64(rep.Planned))
			reg.Counter("supervisor", "faults_injected").Add(int64(len(rep.Injected)))
			reg.Counter("supervisor", "retries").Add(int64(rep.Retries))
			reg.Counter("supervisor", "redispatches").Add(int64(rep.Redispatches))
			reg.Counter("supervisor", "fallbacks").Add(int64(rep.Fallbacks))
			reg.Counter("supervisor", "watchdog_timeouts").Add(int64(rep.WatchdogTimeouts))
			reg.Counter("supervisor", "spes_lost").Add(int64(len(rep.SPEsLost)))
			reg.Counter("supervisor", "backoff_fs").Add(int64(rep.BackoffTime))
			reg.Counter("supervisor", "degraded_fs").Add(int64(rep.DegradedTime))
		}
		res.Metrics = reg.Snapshot()
	}
	if rec, ok := mcfg.Tracer.(*trace.Recorder); ok {
		res.Trace = rec
	}
	if cfg.Exec != nil {
		run, err := cfg.Exec.Execute(ExecPoint{Workload: cfg.Workload, Scenario: cfg.Scenario, Variant: cfg.Variant})
		if err != nil {
			return nil, fmt.Errorf("marvel: exec backend: %w", err)
		}
		res.Exec = run
	}
	return res, nil
}

// portedMain is the PPE main application after porting (Listing 4 shape).
func portedMain(ctx *cell.Context, cfg PortedConfig, sched Schedule, inj *fault.Injector, images []*img.RGB, ms *ModelSet, ref *ReferenceResult, res *PortedResult) error {
	mem := ctx.Memory()
	w := cfg.Workload
	pixels := float64(w.W * w.H)

	// --- one-time: load models from disk, place them in main memory, ---
	// --- load the SPE kernels and leave them idling (§3.3).          ---
	start := ctx.Now()
	ctx.DiskRead(ModelFileBytes, "load-models")
	ctx.ComputeScalar(ModelParseOps, "parse-models")
	// Models are placed in score order (CH, CC, EH, TX); the order fixes
	// the main-memory layout.
	var models [KCD]*PlacedModel
	for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
		pm, err := PlaceModel(mem, ms.Model(id))
		if err != nil {
			return err
		}
		ctx.MemStream(float64(pm.Bytes()), "place-model")
		models[id] = pm
	}

	// PPE fallback closures for graceful degradation: each reproduces its
	// SPE kernel's outputs bit-for-bit by running the same feature/SVM
	// code against the wrapper in main memory, charging reference-style
	// PPE time.
	extractFallback := func(id KernelID) fallbackFunc {
		return func(wrapper mainmem.Addr) uint32 {
			hdr := core.GetUint32s(mem.Bytes(wrapper, exHdrBytes))
			iw, ih, stride := int(hdr[0]), int(hdr[1]), int(hdr[2])
			pixEA := mainmem.Addr(hdr[3])
			y0, y1 := int(hdr[4]), int(hdr[5])
			if iw <= 0 || ih <= 0 || stride < 3*iw || y0 != 0 || y1 != ih {
				return resErr
			}
			vec := referenceFeature(id, img.Wrap(mem.Bytes(pixEA, uint32(stride*ih)), iw, ih, stride))
			cal := Cal(id)
			ctx.ComputeBranches(cal.NomBranchesPerPixel*pixels, -1, id.String()+"-ppe")
			ctx.ComputeScalar(cal.NomOpsPerPixel*pixels*cal.HostOpsMult, id.String()+"-ppe")
			core.PutFloat32s(mem.Bytes(wrapper+mainmem.Addr(extractOutOff()), uint32(len(vec)*4)), vec)
			return resOK
		}
	}
	detectFallback := func(wrapper mainmem.Addr) uint32 {
		hdr := core.GetUint32s(mem.Bytes(wrapper, hdrBytes))
		dim, numSV := int(hdr[0]), int(hdr[1])
		modelEA := mainmem.Addr(hdr[2])
		if dim <= 0 || numSV <= 0 {
			return resErr
		}
		// Locate the placed model by effective address.
		var model *PlacedModel
		for _, pm := range models {
			if pm.EA == modelEA {
				model = pm
				break
			}
		}
		if model == nil || model.Dim != dim || model.NumSV != numSV {
			return resErr
		}
		feature := core.GetFloat32s(mem.Bytes(wrapper+mainmem.Addr(detectFeatureOff()), uint32(dim)*4))
		sum := model.refModel.Decision(feature)
		ctx.ComputeScalar(detectNomOps(numSV, dim)*Cal(KCD).HostOpsMult, "detect-ppe")
		sb := mem.Bytes(wrapper+mainmem.Addr(detectScoreOff(dim)), scoreBytes)
		core.PutFloat32s(sb[:4], []float32{float32(sum)})
		class := uint32(0)
		if sum > 0 {
			class = 1
		}
		core.PutUint32s(sb[4:8], []uint32{class})
		return resOK
	}

	// Kernel placement: extraction kernels on SPE0-3; detection on SPE4,
	// or replicated on SPE4-7 when the schedule gives each feature its
	// own detector. Under supervision, SPEs beyond the planned set form
	// the redispatch pool.
	sup := newSupervisor(ctx, inj, cfg.Watchdog)
	// Extraction kernels serve memoized outputs from the artifact cache,
	// except under an armed fault plan: dma-corrupt and dma-drop change
	// the values a kernel computes.
	var memo *kernelMemo
	if inj == nil {
		memo = newKernelMemo(cfg.artifacts(), w)
	}
	numDetectors := 1
	if sched.Replicated {
		numDetectors = len(listingOrder)
	}
	for i := 0; i < len(listingOrder)+numDetectors; i++ {
		sup.reserve(i)
	}
	var extract, detect [KCD]*kern
	for i, id := range listingOrder {
		k, err := sup.open(i, ExtractKernelSpec(id, cfg.Variant, memo), extractFallback(id))
		if err != nil {
			return err
		}
		extract[id] = k
	}
	detectors := make([]*kern, numDetectors)
	for i := range detectors {
		k, err := sup.open(len(listingOrder)+i, DetectKernelSpec(cfg.Variant), detectFallback)
		if err != nil {
			return err
		}
		detectors[i] = k
	}
	for i, id := range listingOrder {
		detect[id] = detectors[i%numDetectors] // one shared, or one each
	}
	res.OneTime = ctx.Now().Sub(start)

	// Persistent wrappers and pixel blocks, reused per image. An
	// overlapping schedule double-buffers the pixel block (and the
	// extraction wrappers pointing at it) so preprocessing of image i+1
	// can overlap SPE processing of image i.
	stride := img.StrideFor(w.W)
	pixBytes := uint32(stride * w.H)
	numBufs := 1
	if sched.Overlap {
		numBufs = 2
	}
	pixEAs := make([]mainmem.Addr, numBufs)
	exWraps := make([][KCD]*core.Wrapper, numBufs)
	for b := range exWraps {
		ea, err := mem.Alloc(pixBytes, mainmem.AlignCacheLine)
		if err != nil {
			return err
		}
		pixEAs[b] = ea
		for _, id := range listingOrder {
			ew, err := core.NewWrapper(mem, extractFields(id)...)
			if err != nil {
				return err
			}
			fillExtractHeader(ew, w.W, w.H, stride, ea, 0, w.H)
			exWraps[b][id] = ew
		}
	}
	var dtWrap [KCD]*core.Wrapper
	for _, id := range listingOrder {
		pm := models[id]
		dw, err := core.NewWrapper(mem, detectFields(pm.Dim)...)
		if err != nil {
			return err
		}
		fillDetectHeader(dw, pm.Dim, pm.NumSV, pm.EA, 0)
		dtWrap[id] = dw
	}

	// preprocessInto reads and decodes corpus image n into pixel block b:
	// the PPE-side preprocessing of §5.1.
	preprocessInto := func(n, b int) {
		im := images[n]
		ctx.DiskRead(CompressedImageBytes, "read-image")
		ctx.ComputeScalar(DecodeOpsPerPixel*pixels, "decode-image")
		// The decode's store pass writes straight into the aligned pixel
		// block; no extra streaming charge beyond the decode ops (the
		// original code also wrote its framebuffer during decode).
		dst := mem.Bytes(pixEAs[b], pixBytes)
		for y := 0; y < w.H; y++ {
			copy(dst[y*stride:], im.Row(y))
		}
		memo.place(pixEAs[b], n)
	}

	if err := runSchedule(ctx, sched, len(images), exWraps, &dtWrap, &extract, &detect, preprocessInto, ref, res); err != nil {
		return err
	}

	// Tear down: close interfaces (sends OpExit), free wrappers.
	for _, id := range listingOrder {
		if err := extract[id].Close(); err != nil {
			return err
		}
	}
	for _, k := range detectors {
		if err := k.Close(); err != nil {
			return err
		}
	}
	for b := range exWraps {
		for _, id := range listingOrder {
			if err := exWraps[b][id].Free(); err != nil {
				return err
			}
		}
		if err := mem.Free(pixEAs[b]); err != nil {
			return err
		}
	}
	for _, id := range listingOrder {
		if err := dtWrap[id].Free(); err != nil {
			return err
		}
		if err := models[id].Free(mem); err != nil {
			return err
		}
	}
	return mem.CheckLeaks()
}

// runSchedule drives the per-image pipeline under sched. Extractions
// issue in sched.Order, all at once when Parallel and one at a time
// otherwise; each feature then goes to its own detector as soon as its
// extraction completes (Replicated) or, after all four, to the shared
// detector one at a time. With Overlap, image n+1 is preprocessed into
// the other pixel buffer while the SPEs work on image n. Kernels run
// one at a time are timed into res.KernelTime.
func runSchedule(
	ctx *cell.Context,
	sched Schedule,
	numImages int,
	exWraps [][KCD]*core.Wrapper,
	dtWrap *[KCD]*core.Wrapper,
	extract, detect *[KCD]*kern,
	preprocessInto func(n, b int),
	ref *ReferenceResult,
	res *PortedResult,
) error {
	// invoke runs k to completion, charging its round trip to
	// res.KernelTime[id].
	invoke := func(k *kern, wrapper mainmem.Addr, id KernelID) error {
		t0 := ctx.Now()
		if err := k.Send(OpRun, wrapper); err != nil {
			return err
		}
		if err := wait(k, id); err != nil {
			return err
		}
		res.KernelTime[id] += ctx.Now().Sub(t0)
		return nil
	}
	if sched.Overlap {
		preprocessInto(0, 0)
	}
	for n := 0; n < numImages; n++ {
		set := &exWraps[n%len(exWraps)]
		if !sched.Overlap {
			preprocessInto(n, 0)
		}
		// feed FILLs id's detection wrapper from its extraction output
		// (the Listing-4 "put data back / wrap again" step).
		feed := func(id KernelID) {
			vec := set[id].Float32s("out", outDim(id))
			dtWrap[id].SetFloat32s("feature", vec)
			ctx.MemStream(float64(len(vec)*4*2), "copy-feature")
		}
		if sched.Parallel {
			for _, id := range sched.Order {
				if err := extract[id].Send(OpRun, set[id].Addr()); err != nil {
					return err
				}
			}
		}
		if sched.Overlap && n+1 < numImages {
			preprocessInto(n+1, (n+1)%len(exWraps))
		}
		for _, id := range sched.Order {
			var err error
			if sched.Parallel {
				err = wait(extract[id], id)
			} else {
				err = invoke(extract[id], set[id].Addr(), id)
			}
			if err != nil {
				return err
			}
			if sched.Replicated {
				feed(id)
				if err := detect[id].Send(OpRun, dtWrap[id].Addr()); err != nil {
					return err
				}
			}
		}
		for _, id := range sched.Order {
			var err error
			if sched.Replicated {
				err = wait(detect[id], replica(id))
			} else {
				feed(id)
				err = invoke(detect[id], dtWrap[id].Addr(), KCD)
			}
			if err != nil {
				return err
			}
		}

		var r ImageResult
		for _, id := range listingOrder {
			r.Set(id, set[id].Float32s("out", outDim(id)), float64(dtWrap[id].Float32s("score", 1)[0]))
		}
		res.Images = append(res.Images, r)
		if ref != nil {
			res.ValidationErrors += compareImage(&ref.Images[n], &r)
		}
	}
	return nil
}

// wait collects k's in-flight result; any code but resOK is an error
// naming the kernel.
func wait(k *kern, name fmt.Stringer) error {
	code, err := k.Wait()
	if err != nil {
		return err
	}
	if code != resOK {
		return fmt.Errorf("marvel: %s returned %#x", name, code)
	}
	return nil
}

// replica names the replicated detector serving one feature.
type replica KernelID

func (r replica) String() string { return "detect(" + KernelID(r).String() + ")" }

// compareImage counts mismatches between reference and ported outputs.
// Feature vectors must match bit-for-bit; scores must match after
// float32 rounding (the kernel reports a float32).
func compareImage(ref, got *ImageResult) int {
	bad := 0
	cmpVec := func(a, b []float32) {
		if len(a) != len(b) {
			bad++
			return
		}
		for i := range a {
			if a[i] != b[i] {
				bad++
				return
			}
		}
	}
	cmpVec(ref.CH, got.CH)
	cmpVec(ref.CC, got.CC)
	cmpVec(ref.EH, got.EH)
	cmpVec(ref.TX, got.TX)
	for i := range ref.Scores {
		if float64(float32(ref.Scores[i])) != got.Scores[i] {
			bad++
		}
	}
	return bad
}
