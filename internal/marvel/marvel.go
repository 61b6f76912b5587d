// Package marvel implements the paper's case study (§5): a MARVEL-like
// multimedia analysis engine — image preprocessing, four visual feature
// extractors and SVM concept detection — in two builds:
//
//   - the sequential reference application (the "original C++" analog),
//     runnable under the Desktop, Laptop and PPE cost models with the
//     §3.2 profiler attached, and
//   - the Cell port produced by the paper's strategy: the same pipeline
//     with the five kernels of §5.2 detached behind SPEInterface stubs
//     and executed on simulated SPEs with sliced DMA, in the naive
//     (§5.3) and optimized (Table 1) variants, under the three §5.5
//     scheduling scenarios.
//
// Feature values are computed for real in both builds and must agree
// exactly; virtual time comes from the cost models plus the simulated
// communication fabric.
package marvel

import (
	"fmt"

	"cellport/internal/img"
	"cellport/internal/svm"
)

// KernelID identifies one of the five §5.2 kernels.
type KernelID int

// The five kernels, in the paper's listing order.
const (
	KCH KernelID = iota // color histogram extraction
	KCC                 // color correlogram extraction
	KTX                 // texture extraction
	KEH                 // edge histogram extraction
	KCD                 // concept detection (all four features)
	numKernels
)

// KernelIDs lists all kernels in order.
var KernelIDs = []KernelID{KCH, KCC, KTX, KEH, KCD}

func (k KernelID) String() string {
	switch k {
	case KCH:
		return "CHExtract"
	case KCC:
		return "CCExtract"
	case KTX:
		return "TXExtract"
	case KEH:
		return "EHExtract"
	case KCD:
		return "ConceptDet"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Workload describes an experiment input: n synthetic images of the
// paper's 352×240 frame size by default.
type Workload struct {
	Images int
	W, H   int
	Seed   uint64
}

// DefaultWorkload returns the paper's configuration for n images.
func DefaultWorkload(n int) Workload {
	return Workload{Images: n, W: 352, H: 240, Seed: 20070710}
}

// Generate materializes the workload's images.
func (w Workload) Generate() []*img.RGB {
	return img.Corpus(w.Seed, w.Images, w.W, w.H)
}

// CompressedImageBytes is the on-disk size charged per image read (a
// JPEG-ish frame); DecodeOpsPerPixel the decode cost.
const (
	CompressedImageBytes = 30 * 1024
	DecodeOpsPerPixel    = 12.0
	// ModelFileBytes is the on-disk size of the precomputed concept model
	// library read during the one-time preprocessing (§5.2 measures this
	// one-time overhead at ~60% of single-image PPE runtime).
	ModelFileBytes = 4_800_000
	ModelParseOps  = 2_000_000
)

// Feature dimensions and §5.5 support-vector counts per feature model.
const (
	DimCH = 166
	DimCC = 166
	DimEH = 64
	DimTX = 10

	NumSVCH = 186
	NumSVCC = 225
	NumSVEH = 210
	NumSVTX = 255
)

// ModelSet holds the four precomputed concept models, both as decoded
// (float32-rounded) SVMs for reference detection and in the flat encoding
// placed in simulated main memory for the SPE kernel.
type ModelSet struct {
	CH, CC, EH, TX *svm.Model
	EncCH, EncCC   []float32
	EncEH, EncTX   []float32
}

// NewModelSet builds the deterministic synthetic model library with the
// paper's support-vector counts.
func NewModelSet(seed uint64) (*ModelSet, error) {
	build := func(name string, s uint64, n, dim int, gamma float64) (*svm.Model, []float32, error) {
		m := svm.Synthetic(name, s, n, dim, gamma)
		enc, err := svm.Encode(m)
		if err != nil {
			return nil, nil, err
		}
		// Reference detection must see exactly the float32-rounded data
		// the SPE kernel will stream, so decode back.
		dec, err := svm.Decode(name, enc)
		if err != nil {
			return nil, nil, err
		}
		return dec, enc, nil
	}
	ms := &ModelSet{}
	var err error
	if ms.CH, ms.EncCH, err = build("concept-ch", seed+1, NumSVCH, DimCH, 4.0); err != nil {
		return nil, err
	}
	if ms.CC, ms.EncCC, err = build("concept-cc", seed+2, NumSVCC, DimCC, 4.0); err != nil {
		return nil, err
	}
	if ms.EH, ms.EncEH, err = build("concept-eh", seed+3, NumSVEH, DimEH, 4.0); err != nil {
		return nil, err
	}
	if ms.TX, ms.EncTX, err = build("concept-tx", seed+4, NumSVTX, DimTX, 4.0); err != nil {
		return nil, err
	}
	return ms, nil
}

// Model returns extraction kernel id's concept model.
func (ms *ModelSet) Model(id KernelID) *svm.Model {
	switch id {
	case KCH:
		return ms.CH
	case KCC:
		return ms.CC
	case KEH:
		return ms.EH
	case KTX:
		return ms.TX
	default:
		panic("marvel: no concept model for " + id.String())
	}
}

// ImageResult carries the real outputs computed for one image.
type ImageResult struct {
	CH, CC, EH, TX []float32
	// Scores holds the four decision values (CH, CC, EH, TX concepts).
	Scores [4]float64
}

// Set stores extraction kernel id's feature vector and concept score.
func (r *ImageResult) Set(id KernelID, vec []float32, score float64) {
	switch id {
	case KCH:
		r.CH, r.Scores[0] = vec, score
	case KCC:
		r.CC, r.Scores[1] = vec, score
	case KEH:
		r.EH, r.Scores[2] = vec, score
	case KTX:
		r.TX, r.Scores[3] = vec, score
	default:
		panic("marvel: no image result slot for " + id.String())
	}
}

// feature returns extraction kernel id's feature vector.
func (r *ImageResult) feature(id KernelID) []float32 {
	switch id {
	case KCH:
		return r.CH
	case KCC:
		return r.CC
	case KEH:
		return r.EH
	case KTX:
		return r.TX
	default:
		panic("marvel: no image result slot for " + id.String())
	}
}

// Detect runs the four concept detections on extracted features.
func (ms *ModelSet) Detect(r *ImageResult) {
	r.Scores[0] = ms.CH.Decision(r.CH)
	r.Scores[1] = ms.CC.Decision(r.CC)
	r.Scores[2] = ms.EH.Decision(r.EH)
	r.Scores[3] = ms.TX.Decision(r.TX)
}

// MarshalText renders kernel IDs by name in JSON map keys.
func (k KernelID) MarshalText() ([]byte, error) { return []byte(k.String()), nil }
