package hzccl

import (
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Params configures the fZ-light compressor.
type Params struct {
	// ErrorBound is the absolute error bound: every reconstructed value
	// differs from its original by at most this amount. Must be > 0.
	ErrorBound float64
	// BlockSize is the small-block length of the fixed-length encoder.
	// 0 selects the default (32); multiples of 8 use the fast paths.
	BlockSize int
	// Threads is the number of chunks in the container (the paper's
	// per-thread chunk partitioning). Each chunk carries its own outlier,
	// so the count is part of the bytes; 0 selects 1. It does not choose
	// the cores: compression uses up to GOMAXPROCS of them at any chunk
	// count, and the bytes do not depend on how many it had.
	Threads int
}

func (p Params) internal() fzlight.Params {
	return fzlight.Params{ErrorBound: p.ErrorBound, BlockSize: p.BlockSize, Threads: p.Threads}
}

// Compress compresses data with the fZ-light error-bounded lossy
// compressor and returns a self-describing container. Two containers
// produced with identical Params over equal-length inputs can be reduced
// homomorphically with HomomorphicAdd.
func Compress(data []float32, p Params) ([]byte, error) {
	return fzlight.Compress(data, p.internal())
}

// Decompress reconstructs the values of a compressed container.
func Decompress(comp []byte) ([]float32, error) {
	return fzlight.Decompress(comp)
}

// DecompressInto reconstructs into dst, which must hold at least
// Info(comp).DataLen elements. It avoids the output allocation of
// Decompress, which matters on hot paths.
func DecompressInto(comp []byte, dst []float32) error {
	return fzlight.DecompressInto(comp, dst)
}

// StreamInfo describes a compressed container.
type StreamInfo struct {
	// ErrorBound, BlockSize and Threads echo the compression parameters.
	ErrorBound float64
	BlockSize  int
	Threads    int
	// DataLen is the element count of the original data.
	DataLen int
	// CompressedBytes is the container size.
	CompressedBytes int
	// Ratio is 4*DataLen / CompressedBytes.
	Ratio float64
	// ConstantBlockFraction is the fraction of encoded blocks with code
	// length zero — the share of block pairs the homomorphic reducer can
	// handle with its lightest pipelines.
	ConstantBlockFraction float64
}

// Info parses a compressed container's header and block structure.
func Info(comp []byte) (StreamInfo, error) {
	h, err := fzlight.ParseHeader(comp)
	if err != nil {
		return StreamInfo{}, err
	}
	st, err := fzlight.Stats(comp)
	if err != nil {
		return StreamInfo{}, err
	}
	info := StreamInfo{
		ErrorBound:            h.ErrorBound,
		BlockSize:             h.BlockSize,
		Threads:               h.NumChunks,
		DataLen:               h.DataLen,
		CompressedBytes:       len(comp),
		ConstantBlockFraction: st.ConstantFraction(),
	}
	if len(comp) > 0 {
		info.Ratio = float64(4*h.DataLen) / float64(len(comp))
	}
	return info, nil
}

// PipelineStats reports how many block pairs each homomorphic pipeline
// handled during a reduction (paper Table V).
type PipelineStats struct {
	// BothConstant counts pipeline ① (both blocks constant: emit one byte).
	BothConstant int64
	// LeftConstant counts pipeline ② (copy the right block verbatim).
	LeftConstant int64
	// RightConstant counts pipeline ③ (copy the left block verbatim).
	RightConstant int64
	// BothEncoded counts pipeline ④ (decode, add integers, re-encode).
	BothEncoded int64
	// Blocks is the total block-pair count.
	Blocks int64
}

func pipelineStats(st hzdyn.Stats) PipelineStats {
	return PipelineStats{
		BothConstant:  st.Pipeline[hzdyn.PipelineBothConstant],
		LeftConstant:  st.Pipeline[hzdyn.PipelineLeftConstant],
		RightConstant: st.Pipeline[hzdyn.PipelineRightConstant],
		BothEncoded:   st.Pipeline[hzdyn.PipelineBothEncoded],
		Blocks:        st.Blocks,
	}
}

// HomomorphicAdd sums two compressed containers directly in compressed
// space: Decompress(HomomorphicAdd(a,b)) equals
// Decompress(a)+Decompress(b) exactly in the quantized domain, with no
// error beyond the original quantization. Both containers must share
// geometry (error bound, block size, thread count, length).
func HomomorphicAdd(a, b []byte) ([]byte, error) {
	out, _, err := hzdyn.Add(a, b)
	return out, err
}

// HomomorphicAddWithStats is HomomorphicAdd plus pipeline-selection
// statistics.
func HomomorphicAddWithStats(a, b []byte) ([]byte, PipelineStats, error) {
	out, st, err := hzdyn.Add(a, b)
	return out, pipelineStats(st), err
}

// Compress2D compresses a row-major height×width field with the 2D Lorenzo
// predictor — better ratios on image-like data with vertical structure.
// The containers it produces decompress with Decompress and remain fully
// homomorphic (the Lorenzo transform is linear); they can be reduced with
// HomomorphicAdd against other Compress2D containers of identical
// parameters and dimensions.
func Compress2D(data []float32, height, width int, p Params) ([]byte, error) {
	return fzlight.Compress2D(data, height, width, p.internal())
}

// Compress3D compresses a depth×height×width volume (x fastest) with the
// 3D Lorenzo predictor — the natural choice for the paper's volumetric
// application data (RTM, NYX, Hurricane). The containers remain fully
// homomorphic and decompress with Decompress.
func Compress3D(data []float32, depth, height, width int, p Params) ([]byte, error) {
	return fzlight.Compress3D(data, depth, height, width, p.internal())
}
