package fzlight

import "hzccl/internal/telemetry"

// Telemetry instrumentation for the compressor hot paths. Metrics are
// resolved once at package init; the per-call cost is a handful of atomic
// adds plus two clock reads per *chunk* (never per element), which the
// overhead benchmark in telemetry_bench_test.go bounds at <2% of
// Compress.
var (
	mCompressCalls   = telemetry.C("fzlight.compress.calls")
	mCompressRaw     = telemetry.C("fzlight.compress.raw_bytes")
	mCompressOut     = telemetry.C("fzlight.compress.compressed_bytes")
	mCompressOutlier = telemetry.C("fzlight.compress.outliers")
	mCompressErrs    = telemetry.C("fzlight.compress.errors")
	mChunkEncodeNS   = telemetry.H("fzlight.chunk.encode_ns", telemetry.DurationBuckets())

	mDecompressCalls = telemetry.C("fzlight.decompress.calls")
	mDecompressRaw   = telemetry.C("fzlight.decompress.raw_bytes")
	mDecompressIn    = telemetry.C("fzlight.decompress.compressed_bytes")
	mDecompressErrs  = telemetry.C("fzlight.decompress.errors")
	mChunkDecodeNS   = telemetry.H("fzlight.chunk.decode_ns", telemetry.DurationBuckets())
)

func init() {
	// Achieved compression ratio over the life of the process, derived from
	// the cumulative byte counters at export time.
	telemetry.Gauge("fzlight.compress.achieved_ratio", func() float64 {
		out := mCompressOut.Value()
		if out == 0 {
			return 0
		}
		return float64(mCompressRaw.Value()) / float64(out)
	})
	// Which block codecs this process runs: 1 = the AVX2+BMI2 kernels of
	// block_amd64.s (encode, decode and homomorphic add), 0 = portable Go.
	telemetry.Gauge("fzlight.simd_kernels", func() float64 {
		if useKernels {
			return 1
		}
		return 0
	})
}

// elemBytes returns the raw byte width of the container's element type.
func elemBytes(wide bool) int {
	if wide {
		return 8
	}
	return 4
}
