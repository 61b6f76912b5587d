package marvel

import (
	"fmt"

	"cellport/internal/core"
	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/ls"
	"cellport/internal/mainmem"
	"cellport/internal/mfc"
	"cellport/internal/spe"
)

// Variant selects the kernel implementation stage of §5.3: the first
// functional port, or the fully optimized version behind the same
// SPEInterface (the modularity the strategy is designed around).
type Variant int

// Kernel variants.
const (
	// Naive is the first functional port: single-buffered DMA, mostly
	// scalar code, data-dependent branches with static prediction.
	Naive Variant = iota
	// Optimized applies the §4.1 optimizations: DMA multibuffering and
	// lists, SIMDization at the kernel's natural width, branch removal.
	Optimized
)

func (v Variant) String() string {
	if v == Optimized {
		return "optimized"
	}
	return "naive"
}

// Dispatcher opcodes (SPU_Run_* in Listing 1).
const (
	// OpRun processes the header's row range and writes the finalized
	// feature vector (callers pass the full image range).
	OpRun core.Opcode = 1
	// OpRunPartial processes the header's row range and writes the raw
	// accumulator words instead, for PPE-side merging across SPEs
	// (data-parallel extraction).
	OpRunPartial core.Opcode = 2
)

// Kernel result codes (mailbox words).
const (
	resOK  uint32 = 0
	resErr uint32 = 0xE0000001
)

// sliceAcc is the incremental computation every extraction kernel runs
// over DMA'd bands.
type sliceAcc interface {
	process(band *img.RGB, py0, py1 int)
	finalize() []float32
}

type histAcc struct{ a features.HistAcc }

func (h *histAcc) process(b *img.RGB, y0, y1 int) { h.a.AccumulateHistogram(b, y0, y1) }
func (h *histAcc) finalize() []float32            { return h.a.Finalize() }

type corrAcc struct{ a features.CorrAcc }

func (c *corrAcc) process(b *img.RGB, y0, y1 int) { c.a.AccumulateCorrelogram(b, y0, y1) }
func (c *corrAcc) finalize() []float32            { return c.a.Finalize() }

type edgeAcc struct{ a features.EdgeAcc }

func (e *edgeAcc) process(b *img.RGB, y0, y1 int) { e.a.AccumulateEdge(b, y0, y1) }
func (e *edgeAcc) finalize() []float32            { return e.a.Finalize() }

type texAcc struct{ a features.TexAcc }

func (t *texAcc) process(b *img.RGB, y0, y1 int) { t.a.AccumulateTexture(b, y0, y1) }
func (t *texAcc) finalize() []float32            { return t.a.Finalize() }

// geom describes an extraction kernel's slicing needs.
type geom struct {
	halo        int // operator radius in rows
	granularity int // payload row multiple (texture tiles)
	scratchRows int // LS scratch bytes per buffered row, ×W (bins, gray)
	newAcc      func() sliceAcc
}

func kernelGeom(id KernelID) geom {
	switch id {
	case KCH:
		return geom{halo: 0, granularity: 1, scratchRows: 0, newAcc: func() sliceAcc { return &histAcc{} }}
	case KCC:
		return geom{halo: features.CorrRadius, granularity: 1, scratchRows: 1, newAcc: func() sliceAcc { return &corrAcc{} }}
	case KEH:
		return geom{halo: features.EdgeRadius, granularity: 1, scratchRows: 1, newAcc: func() sliceAcc { return &edgeAcc{} }}
	case KTX:
		return geom{halo: 0, granularity: features.TexTile, scratchRows: 1, newAcc: func() sliceAcc { return &texAcc{} }}
	default:
		panic("marvel: no geometry for " + id.String())
	}
}

// chargeExtract charges the SPU time for processing `pixels` payload
// pixels under the given variant's calibration.
func chargeExtract(ctx *spe.Context, id KernelID, v Variant, pixels float64) {
	cal := Cal(id)
	label := id.String()
	switch v {
	case Optimized:
		// Branch stalls are gone: removed, hinted, or folded into SIMD
		// selects (§4.1); their residue is inside OptEff.
		ctx.ComputeSIMD(cal.NomOpsPerPixel*pixels, cal.OptWidth, cal.OptEff, label)
	default:
		if cal.NaiveSIMD {
			ctx.ComputeSIMD(cal.NomOpsPerPixel*pixels, cal.NaiveWidth, cal.NaiveEff, label)
		} else {
			ctx.ComputeCycles(cal.NomOpsPerPixel*pixels/(ctx.Model().ScalarIPC*cal.NaiveEff), label)
			ctx.ComputeBranches(cal.NomBranchesPerPixel*pixels, NaiveMispredict, label)
		}
	}
	ctx.ComputeCycles(cal.SliceOverheadCycles, label+"-overhead")
}

// dmaRows transfers `rows` consecutive image rows (rows*stride bytes,
// contiguous in main memory) into the LS, split into <=16 KB commands. The
// optimized variant batches them as one DMA list (one queue slot); the
// naive variant issues individual gets.
func dmaRows(ctx *spe.Context, lsa ls.Addr, ea mainmem.Addr, rows, stride int, tag int, v Variant) error {
	if stride > mfc.MaxTransfer {
		return fmt.Errorf("marvel: row stride %d exceeds one DMA command", stride)
	}
	rowsPerCmd := mfc.MaxTransfer / stride
	total := rows
	if v == Optimized {
		var list []mfc.ListElement
		off := 0
		for total > 0 {
			n := rowsPerCmd
			if n > total {
				n = total
			}
			list = append(list, mfc.ListElement{EA: ea + mainmem.Addr(off), Size: uint32(n * stride)})
			off += n * stride
			total -= n
		}
		return ctx.GetList(lsa, list, tag)
	}
	off := 0
	for total > 0 {
		n := rowsPerCmd
		if n > total {
			n = total
		}
		if err := ctx.Get(lsa+ls.Addr(off), ea+mainmem.Addr(off), uint32(n*stride), tag); err != nil {
			return err
		}
		off += n * stride
		total -= n
	}
	return nil
}

// planRange plans halo'd slices for payload rows [y0, y1) of an h-row
// image: like img.PlanSlices over the partition, but with halos clamped
// at the *image* boundary, so a window operator behaves identically
// whether the partition covers the whole image or one band of a
// data-parallel split.
func planRange(y0, y1, h, maxRows, halo, granularity int) ([]img.Slice, error) {
	if y0 < 0 || y1 > h || y0 >= y1 {
		return nil, fmt.Errorf("marvel: bad payload range [%d,%d) of %d", y0, y1, h)
	}
	rel, err := img.PlanSlices(y1-y0, maxRows, halo, granularity)
	if err != nil {
		return nil, err
	}
	for i := range rel {
		s := &rel[i]
		s.Y0 += y0
		s.Y1 += y0
		s.HaloTop = halo
		if s.Y0-halo < 0 {
			s.HaloTop = s.Y0
		}
		s.HaloBottom = halo
		if s.Y1+halo > h {
			s.HaloBottom = h - s.Y1
		}
	}
	return rel, nil
}

// sliceBudget is the maximum transferred rows one slice may occupy given
// the kernel's free local store after header allocation: each buffered
// row costs its pixel stride plus the kernel's per-row scratch, the
// optimized variant double-buffers, and a fixed reserve covers the
// output vector plus alignment slack. Shared between the simulated
// kernel and the real-execution seam (ExecPlan) so both always compute
// identical slice plans.
func sliceBudget(free uint32, id KernelID, v Variant, w, stride int) int {
	g := kernelGeom(id)
	buffers := 1
	if v == Optimized {
		buffers = 2
	}
	perRow := stride + g.scratchRows*w
	fixed := outBytes(id) + 64
	return int(free-fixed)/(buffers*perRow) - 1
}

// ExtractKernelSpec builds the SPE program for one extraction kernel: the
// Listing-1 dispatcher around a function that DMAs the header, plans
// halo'd slices against its local-store budget, streams the image through
// one (naive) or two (optimized) buffers, runs the real incremental
// feature computation, and DMAs the result back — the finalized feature
// vector for OpRun, the raw accumulator words for OpRunPartial.
//
// With a non-nil memo, an invocation whose output is already memoized
// skips only the feature computation: it keeps every local-store
// allocation, DMA and charge, and writes the memoized words instead. A
// miss computes and stores its words. Virtual time is the same either
// way, because it depends only on the slice sizes.
func ExtractKernelSpec(id KernelID, v Variant, memo *kernelMemo) core.KernelSpec {
	cal := Cal(id)
	g := kernelGeom(id)
	fn := func(ctx *spe.Context, wrapper mainmem.Addr, partial bool) uint32 {
		st := ctx.Store()
		hdrLS, err := st.Alloc(exHdrBytes, 16)
		if err != nil {
			return resErr
		}
		if err := ctx.Get(hdrLS, wrapper, exHdrBytes, 0); err != nil {
			return resErr
		}
		ctx.WaitTag(0)
		hdr := core.GetUint32s(st.Bytes(hdrLS, exHdrBytes))
		w, h, stride, pixEA := int(hdr[0]), int(hdr[1]), int(hdr[2]), mainmem.Addr(hdr[3])
		y0, y1 := int(hdr[4]), int(hdr[5])
		if w <= 0 || h <= 0 || stride < 3*w || y0 < 0 || y1 > h || y0 >= y1 {
			return resErr
		}

		// Slice plan against the remaining local store.
		oBytes := outBytes(id)
		budget := sliceBudget(st.Free(), id, v, w, stride)
		slices, err := planRange(y0, y1, h, budget, g.halo, g.granularity)
		if err != nil {
			return resErr
		}
		maxRows := 0
		for _, s := range slices {
			if r := s.TransferRows(); r > maxRows {
				maxRows = r
			}
		}
		buffers := 1
		if v == Optimized {
			buffers = 2
		}
		var bufs [2]ls.Addr
		for i := 0; i < buffers; i++ {
			if bufs[i], err = st.Alloc(uint32(maxRows*stride), 16); err != nil {
				return resErr
			}
			if g.scratchRows > 0 {
				// bins/gray scratch
				if _, err = st.Alloc(uint32(maxRows*w*g.scratchRows), 16); err != nil {
					return resErr
				}
			}
		}
		outLS, err := st.Alloc(oBytes, 16)
		if err != nil {
			return resErr
		}

		key, memoed, keyed := memo.lookup(pixEA, outputKey{Image: imageID{W: w, H: h}, Kernel: id, Variant: v, Budget: budget, Y0: y0, Y1: y1, Raw: partial})
		var acc sliceAcc
		if memoed == nil {
			acc = g.newAcc()
		}
		fetch := func(i, tag int) error {
			s := slices[i]
			return dmaRows(ctx, bufs[tag], pixEA+mainmem.Addr(s.TransferY0()*stride),
				s.TransferRows(), stride, tag, v)
		}
		process := func(i, tag int) {
			s := slices[i]
			if acc != nil {
				band := img.Wrap(st.Bytes(bufs[tag], uint32(s.TransferRows()*stride)), w, s.TransferRows(), stride)
				acc.process(band, s.HaloTop, s.HaloTop+s.PayloadRows())
			}
			chargeExtract(ctx, id, v, float64(s.PayloadRows()*w))
		}
		if v == Optimized {
			// Double buffering: fetch slice i+1 while computing slice i.
			if err := fetch(0, 0); err != nil {
				return resErr
			}
			for i := range slices {
				cur := i % 2
				if i+1 < len(slices) {
					if err := fetch(i+1, 1-cur); err != nil {
						return resErr
					}
				}
				ctx.WaitTag(cur)
				process(i, cur)
			}
		} else {
			for i := range slices {
				if err := fetch(i, 0); err != nil {
					return resErr
				}
				ctx.WaitTag(0)
				process(i, 0)
			}
		}

		var out []byte
		switch {
		case memoed != nil:
			out = st.Bytes(outLS, uint32(len(memoed)))
			copy(out, memoed)
		case partial:
			words := encodeRaw(id, acc)
			out = st.Bytes(outLS, uint32(len(words)*4))
			core.PutUint32s(out, words)
		default:
			vec := acc.finalize()
			out = st.Bytes(outLS, uint32(len(vec)*4))
			core.PutFloat32s(out, vec)
		}
		if partial {
			ctx.ComputeScalar(float64(len(out)/4)*3, id.String()+"-emit-raw")
		} else {
			ctx.ComputeScalar(float64(len(out)/4)*12, id.String()+"-finalize")
		}
		if keyed && memoed == nil {
			memo.cache.storeOutput(key, append([]byte(nil), out...))
		}
		if err := ctx.Put(outLS, wrapper+mainmem.Addr(extractOutOff()), oBytes, 1); err != nil {
			return resErr
		}
		ctx.WaitTag(1)
		return resOK
	}
	return core.KernelSpec{
		Name:      fmt.Sprintf("%s-%s", id, v),
		CodeBytes: cal.CodeBytes,
		Mode:      core.Polling,
		Functions: map[core.Opcode]core.KernelFunc{
			OpRun: func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
				return fn(ctx, wrapper, false)
			},
			OpRunPartial: func(ctx *spe.Context, wrapper mainmem.Addr) uint32 {
				return fn(ctx, wrapper, true)
			},
		},
	}
}
