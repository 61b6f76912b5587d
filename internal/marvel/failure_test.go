package marvel

import (
	"testing"

	"cellport/internal/cell"
	"cellport/internal/core"
	"cellport/internal/mainmem"
)

// Failure injection: kernels must report errors through the mailbox
// result word (never hang or corrupt memory) when fed malformed wrappers
// — the situations a real port hits while the data interfaces (§3.4) are
// still being debugged.

func runFailureCase(t *testing.T, spec core.KernelSpec, fill func(mem *mainmem.Memory, w *core.Wrapper)) uint32 {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 32 << 20
	m := cell.New(cfg)
	var result uint32
	_, err := m.RunMain("failure", func(ctx *cell.Context) {
		iface, err := core.Open(ctx, 0, spec)
		if err != nil {
			t.Error(err)
			return
		}
		w, err := core.NewWrapper(ctx.Memory(), extractFields(KCH)...)
		if err != nil {
			t.Error(err)
			return
		}
		fill(ctx.Memory(), w)
		res, _ := iface.SendAndWait(OpRun, w.Addr())
		result = res
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
		if err := w.Free(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func TestExtractKernelRejectsZeroWidth(t *testing.T) {
	res := runFailureCase(t, ExtractKernelSpec(KCH, Optimized, nil), func(mem *mainmem.Memory, w *core.Wrapper) {
		pix := mem.MustAlloc(1024, 128)
		fillExtractHeader(w, 0, 10, 48, pix, 0, 10)
	})
	if res != resErr {
		t.Fatalf("zero-width header: result %#x, want resErr", res)
	}
}

func TestExtractKernelRejectsBadStride(t *testing.T) {
	res := runFailureCase(t, ExtractKernelSpec(KCH, Optimized, nil), func(mem *mainmem.Memory, w *core.Wrapper) {
		pix := mem.MustAlloc(1024, 128)
		fillExtractHeader(w, 32, 8, 32 /* < 3*W */, pix, 0, 8)
	})
	if res != resErr {
		t.Fatalf("bad stride: result %#x, want resErr", res)
	}
}

func TestExtractKernelRejectsBadRowRange(t *testing.T) {
	for _, rng := range [][2]int{{5, 5}, {8, 4}, {0, 99}} {
		res := runFailureCase(t, ExtractKernelSpec(KEH, Optimized, nil), func(mem *mainmem.Memory, w *core.Wrapper) {
			pix := mem.MustAlloc(32*1024, 128)
			fillExtractHeader(w, 32, 8, 96, pix, rng[0], rng[1])
		})
		if res != resErr {
			t.Fatalf("row range %v: result %#x, want resErr", rng, res)
		}
	}
}

func TestExtractKernelRejectsOversizedStride(t *testing.T) {
	// A row wider than one DMA command (16 KB) cannot be fetched by the
	// row-sliced kernels; the kernel must fail cleanly.
	res := runFailureCase(t, ExtractKernelSpec(KCH, Optimized, nil), func(mem *mainmem.Memory, w *core.Wrapper) {
		pix := mem.MustAlloc(20<<20, 128)
		// 5600 px * 3 B = 16800 B stride > 16384.
		fillExtractHeader(w, 5600, 4, 16800, pix, 0, 4)
	})
	if res != resErr {
		t.Fatalf("oversized stride: result %#x, want resErr", res)
	}
}

func TestDetectKernelRejectsCorruptHeaders(t *testing.T) {
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 32 << 20
	m := cell.New(cfg)
	ms, err := NewModelSet(3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunMain("detfail", func(ctx *cell.Context) {
		mem := ctx.Memory()
		pm, err := PlaceModel(mem, ms.TX)
		if err != nil {
			t.Error(err)
			return
		}
		iface, err := core.Open(ctx, 0, DetectKernelSpec(Optimized))
		if err != nil {
			t.Error(err)
			return
		}
		// Case 1: zero dim.
		w1, _ := core.NewWrapper(mem, detectFields(DimTX)...)
		fillDetectHeader(w1, 0, pm.NumSV, pm.EA, 0)
		if res, _ := iface.SendAndWait(OpRun, w1.Addr()); res != resErr {
			t.Errorf("zero dim: result %#x", res)
		}
		// Case 2: SV count disagrees with the placed model's own header.
		w2, _ := core.NewWrapper(mem, detectFields(DimTX)...)
		fillDetectHeader(w2, DimTX, pm.NumSV+1, pm.EA, 0)
		if res, _ := iface.SendAndWait(OpRun, w2.Addr()); res != resErr {
			t.Errorf("SV mismatch: result %#x", res)
		}
		// Case 3: a correct header still works on the same warm kernel.
		w3, _ := core.NewWrapper(mem, detectFields(DimTX)...)
		fillDetectHeader(w3, DimTX, pm.NumSV, pm.EA, 0)
		feat := make([]float32, DimTX)
		for i := range feat {
			feat[i] = 0.1
		}
		w3.SetFloat32s("feature", feat)
		if res, err := iface.SendAndWait(OpRun, w3.Addr()); err != nil || res != resOK {
			t.Errorf("valid detection after failures: res=%#x err=%v", res, err)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
		for _, w := range []*core.Wrapper{w1, w2, w3} {
			if err := w.Free(); err != nil {
				t.Error(err)
			}
		}
		if err := pm.Free(mem); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKernelSurvivesRepeatedFailures(t *testing.T) {
	// The dispatcher's idle loop must keep serving after failed calls —
	// the "application functional at all times" property extends to error
	// paths.
	cfg := cell.DefaultConfig()
	cfg.MemorySize = 32 << 20
	m := cell.New(cfg)
	_, err := m.RunMain("loop", func(ctx *cell.Context) {
		mem := ctx.Memory()
		iface, err := core.Open(ctx, 0, ExtractKernelSpec(KCH, Naive, nil))
		if err != nil {
			t.Error(err)
			return
		}
		bad, _ := core.NewWrapper(mem, extractFields(KCH)...)
		fillExtractHeader(bad, 0, 0, 0, 0, 0, 0)
		for i := 0; i < 3; i++ {
			if res, _ := iface.SendAndWait(OpRun, bad.Addr()); res != resErr {
				t.Errorf("iteration %d: result %#x", i, res)
			}
		}
		// Then a good call.
		im := Workload{Images: 1, W: 64, H: 48, Seed: 5}.Generate()[0]
		stride := im.Stride
		pix := mem.MustAlloc(uint32(im.Bytes()), 128)
		copy(mem.Bytes(pix, uint32(im.Bytes())), im.Pix)
		good, _ := core.NewWrapper(mem, extractFields(KCH)...)
		fillExtractHeader(good, im.W, im.H, stride, pix, 0, im.H)
		if res, err := iface.SendAndWait(OpRun, good.Addr()); err != nil || res != resOK {
			t.Errorf("good call after failures: res=%#x err=%v", res, err)
		}
		if err := iface.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
