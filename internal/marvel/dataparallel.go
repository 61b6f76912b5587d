package marvel

import (
	"fmt"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/mainmem"
	"cellport/internal/sim"
)

// Data-parallel extraction: one kernel, one image, split by rows across
// several SPEs running the same kernel program, each invoked with
// OpRunPartial over its row band; the PPE merges the raw accumulators and
// finalizes. This is the data-parallelism layer §2 lists beyond the
// per-kernel task parallelism the paper evaluates, and the natural next
// optimization once the correlogram dominates the parallel schedule.

// DataParallelResult reports one data-parallel extraction measurement.
type DataParallelResult struct {
	Kernel  KernelID
	NSPEs   int
	Variant Variant
	// Time is the PPE-observed span from first Send to merged feature.
	Time sim.Duration
	// Feature is the merged, finalized vector.
	Feature []float32
	// Matches reports bit-equality with the whole-image reference.
	Matches bool
}

// rowGranularity returns the partition alignment a kernel needs (texture
// tiles anchor at multiples of 32 rows).
func rowGranularity(id KernelID) int {
	if id == KTX {
		return features.TexTile
	}
	return 1
}

// splitRows partitions h rows into n contiguous bands aligned to gran.
// Bands may be empty at the tail for degenerate n; empty bands are
// dropped.
func splitRows(h, n, gran int) [][2]int {
	per := (h + n - 1) / n
	per = (per + gran - 1) / gran * gran
	var out [][2]int
	for y := 0; y < h; y += per {
		y1 := y + per
		if y1 > h {
			y1 = h
		}
		out = append(out, [2]int{y, y1})
	}
	return out
}

// RunDataParallelExtraction runs kernel id over the first image of
// workload w, split across nSPEs, and validates the merged feature
// against the whole-image reference computation. The image, the
// reference and the kernels' memoized band outputs come from arts; nil
// computes them privately.
func RunDataParallelExtraction(id KernelID, nSPEs int, w Workload, v Variant, mcfg *cell.Config, arts *ArtifactCache) (*DataParallelResult, error) {
	if id == KCD {
		return nil, fmt.Errorf("marvel: concept detection is not row-parallel")
	}
	cfg := cell.DefaultConfig()
	if mcfg != nil {
		cfg = *mcfg
	}
	if nSPEs < 1 || nSPEs > cfg.NumSPEs {
		return nil, fmt.Errorf("marvel: nSPEs %d out of range [1,%d]", nSPEs, cfg.NumSPEs)
	}
	w.Images = 1
	image := arts.Images(w)[0]
	refRun, err := arts.Reference(cfg.PPEModel, w)
	if err != nil {
		return nil, err
	}
	ref := refRun.Images[0].feature(id)
	memo := newKernelMemo(arts, w)
	machine := cell.New(cfg)
	defer machine.Release()

	res := &DataParallelResult{Kernel: id, NSPEs: nSPEs, Variant: v}
	var runErr error
	_, err = machine.RunMain("dp-extract", func(ctx *cell.Context) {
		runErr = func() error {
			mem := ctx.Memory()
			stride := img.StrideFor(w.W)
			pixBytes := uint32(stride * w.H)
			pixEA, err := mem.Alloc(pixBytes, mainmem.AlignCacheLine)
			if err != nil {
				return err
			}
			dst := mem.Bytes(pixEA, pixBytes)
			for y := 0; y < w.H; y++ {
				copy(dst[y*stride:], image.Row(y))
			}
			memo.place(pixEA, 0)

			bands := splitRows(w.H, nSPEs, rowGranularity(id))
			ifaces := make([]*core.Interface, len(bands))
			wraps := make([]*core.Wrapper, len(bands))
			for i, b := range bands {
				iface, err := core.Open(ctx, i, ExtractKernelSpec(id, v, memo))
				if err != nil {
					return err
				}
				ifaces[i] = iface
				wr, err := core.NewWrapper(mem, extractFields(id)...)
				if err != nil {
					return err
				}
				fillExtractHeader(wr, w.W, w.H, stride, pixEA, b[0], b[1])
				wraps[i] = wr
			}

			start := ctx.Now()
			for i := range bands {
				if err := ifaces[i].Send(OpRunPartial, wraps[i].Addr()); err != nil {
					return err
				}
			}
			merged := kernelGeom(id).newAcc()
			for i := range bands {
				code, err := ifaces[i].Wait()
				if err != nil {
					return err
				}
				if code != resOK {
					return fmt.Errorf("marvel: partial %s[%d] returned %#x", id, i, code)
				}
				words := core.GetUint32s(wraps[i].Bytes("out"))[:rawWords(id)]
				if err := mergeRaw(id, words, merged); err != nil {
					return err
				}
				// Merge cost on the PPE.
				ctx.ComputeScalar(float64(rawWords(id))*4, "merge-raw")
			}
			res.Feature = merged.finalize()
			res.Time = ctx.Now().Sub(start)

			for i := range bands {
				if err := ifaces[i].Close(); err != nil {
					return err
				}
				if err := wraps[i].Free(); err != nil {
					return err
				}
			}
			if err := mem.Free(pixEA); err != nil {
				return err
			}
			return mem.CheckLeaks()
		}()
	})
	if err != nil {
		return nil, fmt.Errorf("marvel: simulation: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Matches = len(res.Feature) == len(ref)
	if res.Matches {
		for i := range ref {
			if res.Feature[i] != ref[i] {
				res.Matches = false
				break
			}
		}
	}
	return res, nil
}

// referenceFeature computes the whole-image reference vector for a kernel.
func referenceFeature(id KernelID, im *img.RGB) []float32 {
	switch id {
	case KCH:
		return features.ColorHistogram(im)
	case KCC:
		return features.ColorCorrelogram(im)
	case KEH:
		return features.EdgeHistogram(im)
	case KTX:
		return features.Texture(im)
	default:
		panic("marvel: no reference feature for " + id.String())
	}
}
