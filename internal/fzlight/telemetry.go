package fzlight

import "hzccl/internal/telemetry"

// Telemetry instrumentation for the compressor hot paths. Metrics are
// resolved once at package init; the per-call cost is a handful of atomic
// adds plus two clock reads per chunk or segment (never per element), which
// the overhead benchmark in telemetry_bench_test.go bounds at <2% of
// Compress.
var (
	mCompressCalls   = telemetry.C("fzlight.compress.calls")
	mCompressRaw     = telemetry.C("fzlight.compress.raw_bytes")
	mCompressOut     = telemetry.C("fzlight.compress.compressed_bytes")
	mCompressOutlier = telemetry.C("fzlight.compress.outliers")
	mCompressErrs    = telemetry.C("fzlight.compress.errors")
	// Segments counts the parts compressions ran as (DESIGN §11.3): equal to
	// outliers when no chunk was split across cores.
	mCompressSegments = telemetry.C("fzlight.compress.segments")
	mChunkEncodeNS    = telemetry.H("fzlight.chunk.encode_ns", telemetry.DurationBuckets())

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
	// Which block codecs this process runs, its kernel level: 0 = portable
	// Go, 1 = the AVX2+BMI2 kernels of block_amd64.s (encode, decode and
	// homomorphic add), 2 = the same with AVX-512 quantise and dequantise.
	telemetry.Gauge("fzlight.simd_kernels", func() float64 { return float64(level) })
}
