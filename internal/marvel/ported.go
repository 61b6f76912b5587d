package marvel

import (
	"errors"
	"fmt"
	"math"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/fault"
	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/mainmem"
	"cellport/internal/metrics"
	"cellport/internal/sim"
	"cellport/internal/trace"
)

// Scenario selects the §5.5 scheduling scheme.
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

func (s Scenario) String() string {
	switch s {
	case SingleSPE:
		return "single-spe"
	case MultiSPE:
		return "multi-spe"
	case MultiSPE2:
		return "multi-spe2"
	default:
		return "pipelined"
	}
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

// extractOrder lists extraction kernels in expected-completion order for
// the parallel scenarios (shortest first, the correlogram last).
var extractOrder = []KernelID{KCH, KTX, KEH, KCC}

// detModelOf maps an extraction kernel to its concept model index in
// ImageResult.Scores.
func scoreIndex(id KernelID) int {
	switch id {
	case KCH:
		return 0
	case KCC:
		return 1
	case KEH:
		return 2
	default:
		return 3
	}
}

// RunPorted executes the ported MARVEL application on a simulated Cell.
// With an execution backend configured, the same point then runs for
// real and the measured run rides along on the result.
func RunPorted(cfg PortedConfig) (*PortedResult, error) {
	w := cfg.Workload
	if w.Images <= 0 {
		return nil, fmt.Errorf("%w (Workload.Images = %d)", ErrEmptyWorkload, w.Images)
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
		runErr = portedMain(ctx, cfg, inj, images, ms, ref, res)
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
func portedMain(ctx *cell.Context, cfg PortedConfig, inj *fault.Injector, images []*img.RGB, ms *ModelSet, ref *ReferenceResult, res *PortedResult) error {
	mem := ctx.Memory()
	w := cfg.Workload
	pixels := float64(w.W * w.H)

	// --- one-time: load models from disk, place them in main memory, ---
	// --- load the SPE kernels and leave them idling (§3.3).          ---
	start := ctx.Now()
	ctx.DiskRead(ModelFileBytes, "load-models")
	ctx.ComputeScalar(ModelParseOps, "parse-models")
	type placed struct {
		pm  *PlacedModel
		dim int
		n   int
	}
	models := map[KernelID]placed{}
	place := func(id KernelID, m *PlacedModel, err error) error {
		if err != nil {
			return err
		}
		ctx.MemStream(float64(m.Bytes()), "place-model")
		models[id] = placed{pm: m, dim: m.Dim, n: m.NumSV}
		return nil
	}
	pm, err := PlaceModel(mem, ms.CH)
	if err := place(KCH, pm, err); err != nil {
		return err
	}
	pm, err = PlaceModel(mem, ms.CC)
	if err := place(KCC, pm, err); err != nil {
		return err
	}
	pm, err = PlaceModel(mem, ms.EH)
	if err := place(KEH, pm, err); err != nil {
		return err
	}
	pm, err = PlaceModel(mem, ms.TX)
	if err := place(KTX, pm, err); err != nil {
		return err
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
			im := img.Wrap(mem.Bytes(pixEA, uint32(stride*ih)), iw, ih, stride)
			var vec []float32
			switch id {
			case KCH:
				vec = features.ColorHistogram(im)
			case KCC:
				vec = features.ColorCorrelogram(im)
			case KEH:
				vec = features.EdgeHistogram(im)
			default:
				vec = features.Texture(im)
			}
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
		// Locate the placed model by effective address; the match is
		// unique, so map order does not matter.
		var model *PlacedModel
		for _, p := range models {
			if p.pm.EA == modelEA {
				model = p.pm
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

	// Kernel placement: extraction kernels on SPE0-3; detection on SPE4
	// (SingleSPE, MultiSPE) or replicated on SPE4-7 (MultiSPE2). Under
	// supervision, SPEs beyond the planned set form the redispatch pool.
	sup := newSupervisor(ctx, inj, cfg.Watchdog)
	switch cfg.Scenario {
	case MultiSPE2, Pipelined:
		sup.reserve(0, 1, 2, 3, 4, 5, 6, 7)
	default:
		sup.reserve(0, 1, 2, 3, 4)
	}
	extract := map[KernelID]*kern{}
	for i, id := range []KernelID{KCH, KCC, KTX, KEH} {
		k, err := sup.open(i, ExtractKernelSpec(id, cfg.Variant), extractFallback(id))
		if err != nil {
			return err
		}
		extract[id] = k
	}
	detect := map[KernelID]*kern{}
	switch cfg.Scenario {
	case MultiSPE2, Pipelined:
		for i, id := range []KernelID{KCH, KCC, KTX, KEH} {
			k, err := sup.open(4+i, DetectKernelSpec(cfg.Variant), detectFallback)
			if err != nil {
				return err
			}
			detect[id] = k
		}
	default:
		k, err := sup.open(4, DetectKernelSpec(cfg.Variant), detectFallback)
		if err != nil {
			return err
		}
		for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
			detect[id] = k
		}
	}
	res.OneTime = ctx.Now().Sub(start)

	// Persistent wrappers and pixel blocks, reused per image. The
	// pipelined schedule double-buffers the pixel block (and the
	// extraction wrappers pointing at it) so preprocessing of image i+1
	// can overlap SPE processing of image i.
	stride := img.StrideFor(w.W)
	pixBytes := uint32(stride * w.H)
	numBufs := 1
	if cfg.Scenario == Pipelined {
		numBufs = 2
	}
	pixEAs := make([]mainmem.Addr, numBufs)
	exWraps := make([]map[KernelID]*core.Wrapper, numBufs)
	for b := 0; b < numBufs; b++ {
		ea, err := mem.Alloc(pixBytes, mainmem.AlignCacheLine)
		if err != nil {
			return err
		}
		pixEAs[b] = ea
		exWraps[b] = map[KernelID]*core.Wrapper{}
		for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
			ew, err := core.NewWrapper(mem, extractFields(id)...)
			if err != nil {
				return err
			}
			fillExtractHeader(ew, w.W, w.H, stride, ea, 0, w.H)
			exWraps[b][id] = ew
		}
	}
	exWrap := exWraps[0]
	dtWrap := map[KernelID]*core.Wrapper{}
	for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
		p := models[id]
		dw, err := core.NewWrapper(mem, detectFields(p.dim)...)
		if err != nil {
			return err
		}
		fillDetectHeader(dw, p.dim, p.n, p.pm.EA, 0)
		dtWrap[id] = dw
	}

	readFeatureSet := func(set map[KernelID]*core.Wrapper, id KernelID) []float32 {
		return set[id].Float32s("out", outDim(id))
	}
	readFeature := func(id KernelID) []float32 { return readFeatureSet(exWrap, id) }
	feedDetectorSet := func(set map[KernelID]*core.Wrapper, id KernelID) {
		// FILL the detection wrapper from the extraction output (the
		// Listing-4 "put data back / wrap again" step).
		vec := readFeatureSet(set, id)
		dtWrap[id].SetFloat32s("feature", vec)
		ctx.MemStream(float64(len(vec)*4*2), "copy-feature")
	}
	feedDetector := func(id KernelID) { feedDetectorSet(exWrap, id) }
	readScore := func(id KernelID) float64 {
		return float64(dtWrap[id].Float32s("score", 1)[0])
	}
	// preprocessInto reads and decodes one image into pixel block b: the
	// PPE-side preprocessing of §5.1.
	preprocessInto := func(im *img.RGB, b int) {
		ctx.DiskRead(CompressedImageBytes, "read-image")
		ctx.ComputeScalar(DecodeOpsPerPixel*pixels, "decode-image")
		// The decode's store pass writes straight into the aligned pixel
		// block; no extra streaming charge beyond the decode ops (the
		// original code also wrote its framebuffer during decode).
		dst := mem.Bytes(pixEAs[b], pixBytes)
		for y := 0; y < w.H; y++ {
			copy(dst[y*stride:], im.Row(y))
		}
	}

	if cfg.Scenario == Pipelined {
		if err := runPipelined(ctx, images, exWraps, dtWrap, extract, detect,
			preprocessInto, feedDetectorSet, readFeatureSet, readScore, ref, res); err != nil {
			return err
		}
	} else {
		// --- per-image pipeline, sequential schedules ------------------
		if err := runSequentialScenarios(ctx, cfg, images, exWrap, dtWrap, extract, detect,
			preprocessInto, feedDetector, readFeature, readScore, ref, res); err != nil {
			return err
		}
	}

	// Tear down: close interfaces (sends OpExit), free wrappers.
	for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
		if err := extract[id].Close(); err != nil {
			return err
		}
	}
	closed := map[*kern]bool{}
	for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
		k := detect[id]
		if !closed[k] {
			if err := k.Close(); err != nil {
				return err
			}
			closed[k] = true
		}
	}
	for b := 0; b < numBufs; b++ {
		for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
			if err := exWraps[b][id].Free(); err != nil {
				return err
			}
		}
		if err := mem.Free(pixEAs[b]); err != nil {
			return err
		}
	}
	for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
		if err := dtWrap[id].Free(); err != nil {
			return err
		}
		if err := models[id].pm.Free(mem); err != nil {
			return err
		}
	}
	return mem.CheckLeaks()
}

// runSequentialScenarios executes the paper's three schedules (one image
// fully processed before the next one is touched).
func runSequentialScenarios(
	ctx *cell.Context,
	cfg PortedConfig,
	images []*img.RGB,
	exWrap, dtWrap map[KernelID]*core.Wrapper,
	extract, detect map[KernelID]*kern,
	preprocessInto func(*img.RGB, int),
	feedDetector func(KernelID),
	readFeature func(KernelID) []float32,
	readScore func(KernelID) float64,
	ref *ReferenceResult,
	res *PortedResult,
) error {
	for n, im := range images {
		preprocessInto(im, 0)

		var r ImageResult
		invoke := func(id KernelID, k *kern, wrapper mainmem.Addr) error {
			t0 := ctx.Now()
			code, err := k.SendAndWait(OpRun, wrapper)
			if err != nil {
				return err
			}
			if code != resOK {
				return fmt.Errorf("marvel: %s returned %#x", id, code)
			}
			res.KernelTime[id] += ctx.Now().Sub(t0)
			return nil
		}

		switch cfg.Scenario {
		case SingleSPE:
			for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
				if err := invoke(id, extract[id], exWrap[id].Addr()); err != nil {
					return err
				}
			}
			for _, id := range []KernelID{KCH, KCC, KTX, KEH} {
				feedDetector(id)
				if err := invoke(KCD, detect[id], dtWrap[id].Addr()); err != nil {
					return err
				}
			}
		case MultiSPE:
			// Fig. 4(c) with strict group order: the extraction group runs
			// in parallel; once it completes, the detections run
			// sequentially on the shared detector SPE ("the groups ... are
			// still executed sequentially").
			for _, id := range extractOrder {
				if err := extract[id].Send(OpRun, exWrap[id].Addr()); err != nil {
					return err
				}
			}
			for _, id := range extractOrder {
				code, err := extract[id].Wait()
				if err != nil {
					return err
				}
				if code != resOK {
					return fmt.Errorf("marvel: %s returned %#x", id, code)
				}
			}
			for _, id := range extractOrder {
				feedDetector(id)
				if err := invoke(KCD, detect[id], dtWrap[id].Addr()); err != nil {
					return err
				}
			}
		case MultiSPE2:
			// Replicated detectors: each extraction is immediately followed
			// by its own detection on its paired SPE, overlapping with the
			// remaining extractions.
			for _, id := range extractOrder {
				if err := extract[id].Send(OpRun, exWrap[id].Addr()); err != nil {
					return err
				}
			}
			var inFlight []KernelID
			for _, id := range extractOrder {
				code, err := extract[id].Wait()
				if err != nil {
					return err
				}
				if code != resOK {
					return fmt.Errorf("marvel: %s returned %#x", id, code)
				}
				feedDetector(id)
				if err := detect[id].Send(OpRun, dtWrap[id].Addr()); err != nil {
					return err
				}
				inFlight = append(inFlight, id)
			}
			for _, id := range inFlight {
				code, err := detect[id].Wait()
				if err != nil {
					return err
				}
				if code != resOK {
					return fmt.Errorf("marvel: detect(%s) returned %#x", id, code)
				}
			}
		}

		r.CH = readFeature(KCH)
		r.CC = readFeature(KCC)
		r.EH = readFeature(KEH)
		r.TX = readFeature(KTX)
		for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
			r.Scores[scoreIndex(id)] = readScore(id)
		}
		res.Images = append(res.Images, r)

		if ref != nil {
			res.ValidationErrors += compareImage(&ref.Images[n], &r)
		}
	}
	return nil
}

// runPipelined executes the extension schedule: while the SPEs extract
// and detect image i (from pixel-buffer set i%2), the PPE preprocesses
// image i+1 into the other set. Detections use the replicated detectors
// (SPE4-7), so each extraction is followed by its own detection as in
// MultiSPE2.
func runPipelined(
	ctx *cell.Context,
	images []*img.RGB,
	exWraps []map[KernelID]*core.Wrapper,
	dtWrap map[KernelID]*core.Wrapper,
	extract, detect map[KernelID]*kern,
	preprocessInto func(*img.RGB, int),
	feedDetectorSet func(map[KernelID]*core.Wrapper, KernelID),
	readFeatureSet func(map[KernelID]*core.Wrapper, KernelID) []float32,
	readScore func(KernelID) float64,
	ref *ReferenceResult,
	res *PortedResult,
) error {
	if len(images) == 0 {
		return nil
	}
	preprocessInto(images[0], 0)
	for n := range images {
		set := exWraps[n%2]
		// Launch all four extractions on image n.
		for _, id := range extractOrder {
			if err := extract[id].Send(OpRun, set[id].Addr()); err != nil {
				return err
			}
		}
		// Overlap: preprocess image n+1 into the other buffer while the
		// SPEs work.
		if n+1 < len(images) {
			preprocessInto(images[n+1], (n+1)%2)
		}
		// Collect extractions, hand each feature to its own detector.
		var inFlight []KernelID
		for _, id := range extractOrder {
			code, err := extract[id].Wait()
			if err != nil {
				return err
			}
			if code != resOK {
				return fmt.Errorf("marvel: %s returned %#x", id, code)
			}
			feedDetectorSet(set, id)
			if err := detect[id].Send(OpRun, dtWrap[id].Addr()); err != nil {
				return err
			}
			inFlight = append(inFlight, id)
		}
		for _, id := range inFlight {
			code, err := detect[id].Wait()
			if err != nil {
				return err
			}
			if code != resOK {
				return fmt.Errorf("marvel: detect(%s) returned %#x", id, code)
			}
		}

		var r ImageResult
		r.CH = readFeatureSet(set, KCH)
		r.CC = readFeatureSet(set, KCC)
		r.EH = readFeatureSet(set, KEH)
		r.TX = readFeatureSet(set, KTX)
		for _, id := range []KernelID{KCH, KCC, KEH, KTX} {
			r.Scores[scoreIndex(id)] = readScore(id)
		}
		res.Images = append(res.Images, r)
		if ref != nil {
			res.ValidationErrors += compareImage(&ref.Images[n], &r)
		}
	}
	return nil
}

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
			if math.Abs(float64(float32(ref.Scores[i]))-got.Scores[i]) > 0 {
				bad++
			}
		}
	}
	return bad
}
