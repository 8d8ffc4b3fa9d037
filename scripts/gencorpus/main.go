// Command gencorpus regenerates the committed fuzz seed corpora under the
// testdata/fuzz/ directories of internal/fzlight, internal/hzdyn,
// internal/ompszp, internal/szx, internal/conformance, internal/datasets
// (the sin kernel) and internal/crc32c (the folding kernel). Run it from the
// repository root after changing the on-disk format or the fuzz target
// signatures:
//
//	go run ./scripts/gencorpus
//
// The seeds are chosen to pin known-tricky paths: chunk outliers (the raw
// first quantized value each chunk carries), the hZ-dynamic overflow
// fallback (a folded stream whose next Add overflows int32), 2D/3D
// containers and pairs of them, a container with a flag set (the float64
// bit of earlier builds, which no decoder reads any more), truncated and
// corrupt streams, and the headers the ompSZp and SZx decoders must refuse
// before they allocate.
//
// scripts/check.sh runs it in a scratch directory and requires every file
// it writes to equal the committed one.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/ompszp"
	"hzccl/internal/szx"
)

// entry renders one corpus file in the "go test fuzz v1" encoding.
func entry(args ...any) string {
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	for _, a := range args {
		switch v := a.(type) {
		case []byte:
			fmt.Fprintf(&b, "[]byte(%q)\n", v)
		case uint8:
			fmt.Fprintf(&b, "uint8(%d)\n", v)
		case int64:
			fmt.Fprintf(&b, "int64(%d)\n", v)
		default:
			log.Fatalf("unsupported corpus arg type %T", a)
		}
	}
	return b.String()
}

func write(dir, name string, content string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

// floatsToBytes encodes float32 values little-endian, the layout
// floatbytes.Floats decodes.
func floatsToBytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		u := math.Float32bits(v)
		out[4*i] = byte(u)
		out[4*i+1] = byte(u >> 8)
		out[4*i+2] = byte(u >> 16)
		out[4*i+3] = byte(u >> 24)
	}
	return out
}

func sine(n int, phase float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(phase + float64(i)/9))
	}
	return out
}

// outlierField is small everywhere except a large first value per chunk,
// exercising the outlier (raw first quantized value) path.
func outlierField(n int) []float32 {
	out := sine(n, 0.2)
	out[0] = 9000
	if n > 64 {
		out[n/2] = -8500
	}
	return out
}

func mustCompress(data []float32, p fzlight.Params) []byte {
	comp, err := fzlight.Compress(data, p)
	if err != nil {
		log.Fatal(err)
	}
	return comp
}

func main() {
	eb := 1e-3

	// --- internal/fzlight: FuzzDecompress([]byte) ---
	dir := "internal/fzlight/testdata/fuzz/FuzzDecompress"
	c1d := mustCompress(sine(200, 0), fzlight.Params{ErrorBound: eb, Threads: 3})
	write(dir, "seed-1d-multichunk", entry(c1d))
	write(dir, "seed-outlier", entry(mustCompress(outlierField(128), fzlight.Params{ErrorBound: eb})))
	c2d, err := fzlight.Compress2D(sine(96, 0.5), 8, 12, fzlight.Params{ErrorBound: eb})
	if err != nil {
		log.Fatal(err)
	}
	write(dir, "seed-2d", entry(c2d))
	c3d, err := fzlight.Compress3D(sine(120, 1), 4, 5, 6, fzlight.Params{ErrorBound: eb})
	if err != nil {
		log.Fatal(err)
	}
	write(dir, "seed-3d", entry(c3d))
	// Flag bit 0 marked a float64 container in earlier builds; no flag is
	// defined now, so a container with one set must fail to decode.
	cos := make([]float32, 80)
	for i := range cos {
		cos[i] = float32(math.Cos(float64(i) / 11))
	}
	c64 := mustCompress(cos, fzlight.Params{ErrorBound: eb})
	c64[5] = 0x01
	write(dir, "seed-float64", entry(c64))
	write(dir, "seed-truncated", entry(c1d[:len(c1d)/2]))
	// A v3 header whose width × height (2^32 + 2^16) wraps a 32-bit int to
	// 65536, which divides the element count: the parser must reject it in
	// uint64 arithmetic on every architecture.
	wrap3d := make([]byte, 48)
	copy(wrap3d, "FZL1")
	wrap3d[4] = 3
	binary.LittleEndian.PutUint16(wrap3d[6:], 16384)
	binary.LittleEndian.PutUint64(wrap3d[8:], math.Float64bits(eb))
	binary.LittleEndian.PutUint32(wrap3d[16:], 1)
	binary.LittleEndian.PutUint64(wrap3d[20:], 65536)
	binary.LittleEndian.PutUint32(wrap3d[28:], 65536)
	binary.LittleEndian.PutUint32(wrap3d[32:], 65537)
	binary.LittleEndian.PutUint32(wrap3d[36:], 8) // outlier + 4 constant blocks
	write(dir, "seed-3d-plane-wraps-int32", entry(wrap3d))

	// --- internal/fzlight: FuzzCompressRoundTrip([]byte, uint8, uint8) ---
	dir = "internal/fzlight/testdata/fuzz/FuzzCompressRoundTrip"
	write(dir, "seed-outlier", entry(floatsToBytes(outlierField(96)), uint8(2), uint8(3)))
	write(dir, "seed-alternating", entry(floatsToBytes([]float32{100, -100, 100, -100, 0.5, -0.5}), uint8(1), uint8(0)))

	// Delta blocks, filled alternately, and their encoded stream.
	fill := func(even, odd int32) (p [32]int32) {
		for i := range p {
			p[i] = even
			if i%2 == 1 {
				p[i] = odd
			}
		}
		return p
	}
	stream := func(blocks ...[32]int32) []byte {
		var out []byte
		scratch := make([]uint32, 32)
		for i := range blocks {
			dst := make([]byte, 1+4+128+8)
			out = append(out, dst[:fzlight.EncodeBlock(dst, blocks[i][:], scratch)]...)
		}
		return out
	}

	// --- internal/fzlight: FuzzBlockKernels([]byte) ---
	// One case is a float64 scale, an int32 carry, then a body read both as
	// a run of 32-value float32 blocks to encode and as a block stream to
	// decode (see kernelCase in internal/fzlight/kernel_test.go, whose f.Add
	// seeds cover every width and lane; these pin the named corner cases on
	// disk).
	dir = "internal/fzlight/testdata/fuzz/FuzzBlockKernels"
	kcase := func(scale float64, carry int32, body []byte) string {
		b := make([]byte, 12, 12+len(body))
		binary.LittleEndian.PutUint64(b, math.Float64bits(scale))
		binary.LittleEndian.PutUint32(b[8:], uint32(carry))
		return entry(append(b, body...))
	}
	blk := make([]float32, 32)
	for i := range blk {
		blk[i] = 3 * (float32(i-16) + 0.5) // ×⅓ lands on exact ties k+½
	}
	write(dir, "seed-ties", kcase(1.0/3, -5, floatsToBytes(blk)))
	const big = 1<<29 - 32 // ×recip = 2^29−¼: passes the range test, rounds to ±2^29
	for i := range blk {
		blk[i] = big * float32(1-2*(i%2))
	}
	write(dir, "seed-width31", kcase((1<<29-0.25)/big, 0, floatsToBytes(blk)))
	blk = sine(32, 0.4)
	blk[17], blk[28] = float32(math.NaN()), 3e30
	write(dir, "seed-nan-before-range", kcase(500, 77, floatsToBytes(blk)))
	blk[3] = float32(math.Inf(-1))
	write(dir, "seed-inf-first", kcase(500, 77, floatsToBytes(blk)))
	wrap := []byte{30, 0, 0xFF, 0x0F, 0x80} // c=30, every magnitude near 2^30
	for i := 0; i < 3*32+4*6+8; i++ {
		wrap = append(wrap, 0xFF-byte(i))
	}
	write(dir, "seed-prefix-sum-wraps", kcase(0.002, math.MaxInt32-3, wrap))
	write(dir, "seed-no-slack", kcase(0.002, 1, wrap[:len(wrap)-8]))
	write(dir, "seed-marker-33", kcase(1, 0, []byte{33, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}))
	// Runs: blocks from 2^-3 to 2^4 wide between constant ones, a bad value
	// in the middle of one, and decode streams a marker of 31, or a block
	// without its 8 bytes of slack, stops in the middle.
	var runVals []float32
	for k := 0; k < 8; k++ {
		amp := float32(math.Ldexp(1, 3*k-3))
		for _, v := range sine(32, float64(k)) {
			runVals = append(runVals, amp*v)
		}
		runVals = append(runVals, make([]float32, 32)...)
	}
	write(dir, "seed-run-widths", kcase(1.25, 3, floatsToBytes(runVals)))
	runVals[5*32+17] = float32(math.NaN())
	write(dir, "seed-run-nan-midrun", kcase(1.25, 3, floatsToBytes(runVals)))
	var zero [32]int32
	head := stream(fill(21, -9), zero, fill(300, -5), fill(70000, -70000), zero)
	write(dir, "seed-run-marker31-midrun", kcase(0.002, 12345,
		append(append(head[:len(head):len(head)], stream(fill(1<<30, -5))...), stream(fill(-40, 33), zero)...)))
	last := stream(fill(1000, -77))
	write(dir, "seed-run-no-slack-midrun", kcase(0.002, 12345,
		append(append(head[:len(head):len(head)], last...), make([]byte, 7)...)))

	// --- internal/fzlight: FuzzSumKernel([]byte, []byte) ---
	// Two block streams, added pair by pair by the SIMD kernel and by the
	// portable pipeline ④ (sumSeeds in internal/fzlight/sum_kernel_test.go
	// covers every width pair; these pin the named corner cases on disk).
	dir = "internal/fzlight/testdata/fuzz/FuzzSumKernel"
	lead, trail := fill(21, -9), fill(-40, 33) // widths 5 and 6
	const e30, e31 = 1<<30 - 1, math.MaxInt32
	write(dir, "seed-carry-30-to-31", entry(
		stream(lead, fill(e30, -e30), trail),
		stream(lead, fill(e30, -1), trail)))
	write(dir, "seed-cancel-to-constant", entry(
		stream(lead, fill(1000, -77), fill(1000, -77), trail),
		stream(trail, fill(-1000, 77), fill(-1000, 77), lead)))
	write(dir, "seed-int32-edge", entry(
		stream(lead, fill(e31, -e31), trail),
		stream(lead, fill(-e31, e31), trail)))
	write(dir, "seed-overflow", entry(
		stream(lead, fill(e31, -e31)),
		stream(lead, fill(e31, 1))))
	write(dir, "seed-constant-midrun", entry(
		stream(lead, trail, fill(0, 0), lead, trail),
		stream(trail, lead, lead, fill(0, 0), lead)))
	run := stream(lead, fill(300, -5), fill(70000, -70000), trail)
	write(dir, "seed-truncated-in-slack", entry(run[:len(run)-7], run))
	write(dir, "seed-truncated-in-block", entry(run, run[:len(run)-30]))
	write(dir, "seed-marker-33", entry(
		append(stream(lead), 33, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17),
		run))
	// Every pipeline in one run: ① both constant, ② and ③ copies of the
	// other side, up to width 32, then ④.
	write(dir, "seed-pipelines-midrun", entry(
		stream(lead, zero, fill(300, -5), zero, zero, fill(math.MinInt32, 5), trail),
		stream(trail, fill(70000, -3), zero, zero, fill(e31, -e31), zero, lead)))
	// A marker beyond 32 beside a constant block, with bytes enough behind
	// it to pass for a block, on either side.
	bogus := append(stream(lead), append([]byte{33}, make([]byte, 200)...)...)
	write(dir, "seed-marker-33-beside-constant", entry(bogus, stream(trail, zero, lead)))
	write(dir, "seed-constant-beside-marker-33", entry(stream(trail, zero, lead), bogus))

	// --- internal/hzdyn: FuzzAdd([]byte, []byte) ---
	dir = "internal/hzdyn/testdata/fuzz/FuzzAdd"
	p := fzlight.Params{ErrorBound: eb}
	write(dir, "seed-self", entry(c1d, c1d))
	write(dir, "seed-outlier-pair", entry(
		mustCompress(outlierField(128), p),
		mustCompress(sine(128, 2), p)))
	// Overflow regression: fold an extreme alternating stream until the
	// next Add's quantized deltas exceed int32 — this pair makes Add
	// return ErrOverflow and AddWithFallback take the DOC path.
	extreme := make([]float32, 96)
	mag := float32(eb * float64(uint32(1)<<29))
	for i := range extreme {
		if i%2 == 0 {
			extreme[i] = mag
		} else {
			extreme[i] = -mag
		}
	}
	comp := mustCompress(extreme, p)
	acc := comp
	for {
		next, _, err := hzdyn.Add(acc, comp)
		if err != nil {
			break // acc+comp overflows: that's the pair to pin
		}
		acc = next
	}
	write(dir, "seed-overflow-fallback", entry(acc, comp))
	write(dir, "seed-geometry-mismatch", entry(c1d, mustCompress(sine(64, 0), p)))
	write(dir, "seed-float64", entry(c64, c64))
	// The Lorenzo layouts take the reducer's one path too: single- and
	// multi-chunk 2D pairs, a 3D pair, and a 2D container beside the 3D
	// one of height 1 — identical payload bytes, different layout, so the
	// pair must fail ErrGeometry.
	mustLayout := func(comp []byte, err error) []byte {
		if err != nil {
			log.Fatal(err)
		}
		return comp
	}
	write(dir, "seed-2d-pair", entry(c2d, mustLayout(fzlight.Compress2D(sine(96, 2), 8, 12, p))))
	write(dir, "seed-3d-pair", entry(c3d, mustLayout(fzlight.Compress3D(sine(120, 3), 4, 5, 6, p))))
	p3 := fzlight.Params{ErrorBound: eb, Threads: 3}
	write(dir, "seed-2d-multichunk-pair", entry(
		mustLayout(fzlight.Compress2D(outlierField(96), 8, 12, p3)),
		mustLayout(fzlight.Compress2D(sine(96, 2), 8, 12, p3))))
	write(dir, "seed-2d-3d-same-payload", entry(c2d, mustLayout(fzlight.Compress3D(sine(96, 0.5), 8, 1, 12, p))))

	// --- internal/hzdyn: FuzzHomomorphism([]byte, []byte) ---
	dir = "internal/hzdyn/testdata/fuzz/FuzzHomomorphism"
	write(dir, "seed-outlier", entry(
		floatsToBytes(outlierField(64)),
		floatsToBytes(sine(64, 0.7))))
	write(dir, "seed-cancellation", entry(
		floatsToBytes([]float32{5000, -5000, 2500, -2500}),
		floatsToBytes([]float32{-5000, 5000, -2500, 2500})))

	// --- internal/ompszp, internal/szx: FuzzDecompress([]byte) ---
	// The baselines' decoders: streams of every block kind, and headers
	// whose element count the payload cannot back, whose bound is not
	// finite at 2·eb, or (SZx) whose block size lets one 5-byte constant
	// block claim billions of values.
	dir = "internal/ompszp/testdata/fuzz/FuzzDecompress"
	withZeros := sine(160, 0.3)
	for i := 64; i < 128; i++ {
		withZeros[i] = 0
	}
	oc, err := ompszp.Compress(withZeros, ompszp.Params{ErrorBound: eb})
	if err != nil {
		log.Fatal(err)
	}
	write(dir, "seed-zero-and-outlier-blocks", entry(oc))
	unbacked := append([]byte(nil), oc...)
	binary.LittleEndian.PutUint64(unbacked[16:], 1<<62)
	write(dir, "seed-datalen-unbacked", entry(unbacked))
	huge := append([]byte(nil), oc...)
	binary.LittleEndian.PutUint64(huge[8:], math.Float64bits(math.MaxFloat64))
	write(dir, "seed-bound-doubles-to-inf", entry(huge))

	dir = "internal/szx/testdata/fuzz/FuzzDecompress"
	sc, err := szx.Compress(append(make([]float32, 128), sine(100, 0)...), szx.Params{ErrorBound: eb})
	if err != nil {
		log.Fatal(err)
	}
	write(dir, "seed-constant-and-raw-blocks", entry(sc))
	unbacked = append([]byte(nil), sc...)
	binary.LittleEndian.PutUint64(unbacked[16:], 1<<62)
	write(dir, "seed-datalen-unbacked", entry(unbacked))
	wide := append([]byte(nil), sc[:24+5]...) // the header and one constant block
	binary.LittleEndian.PutUint32(wide[4:], 0xF8000042)
	binary.LittleEndian.PutUint64(wide[16:], 0xF8000042)
	write(dir, "seed-block-size-unbounded", entry(wide))

	// --- internal/conformance ---
	dir = "internal/conformance/testdata/fuzz/FuzzCompressorOracle"
	write(dir, "seed-outlier", entry(floatsToBytes(outlierField(96)), uint8(2)))
	write(dir, "seed-sine", entry(floatsToBytes(sine(128, 0.1)), uint8(1)))

	dir = "internal/conformance/testdata/fuzz/FuzzHomomorphicOracle"
	write(dir, "seed-outlier", entry(
		floatsToBytes(outlierField(64)),
		floatsToBytes(outlierField(64))))

	dir = "internal/conformance/testdata/fuzz/FuzzCollectiveShapes"
	write(dir, "seed-odd-ranks", entry(uint8(6), uint8(101), int64(3)))
	write(dir, "seed-empty", entry(uint8(4), uint8(0), int64(4)))

	// --- internal/datasets: FuzzSin([]byte) ---
	// Runs of float64 bit patterns for the sin kernel: each kind of value
	// that stops it in front of its eight (NaN, ±Inf, 2^29) inside a run,
	// the octant edges, and ±0 and the subnormals, which keep their sign.
	dir = "internal/datasets/testdata/fuzz/FuzzSin"
	f64 := func(xs ...float64) []byte {
		out := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
		return out
	}
	write(dir, "seed-stops-midrun", entry(f64(0.5, 1, 2, 3, math.NaN(), 5, 6, 7, 8, 9, 10, 11,
		12, 13, 14, 15, math.Inf(1), 17, 18, 19, 20, 21, 22, 23, 1<<29, 1<<29-1, -(1<<29-1), math.Inf(-1))))
	q := math.Pi / 4
	write(dir, "seed-octant-edges", entry(f64(q, math.Nextafter(q, 0), math.Nextafter(q, 1), 3*q,
		math.Nextafter(3*q, 0), 5*q, math.Nextafter(5*q, 9), 7*q, -7*q, 1e6*q, math.Nextafter(-1e6*q, 0))))
	write(dir, "seed-zeros-subnormals", entry(f64(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Float64frombits(1<<52-1), -math.Float64frombits(1<<52), 1e-300, -2.5e-308)))

	// --- internal/crc32c: FuzzUpdate([]byte, int64) ---
	// A message through every fold stage (256, 64 and 16 bytes and a
	// tail), and splits that leave a first part below the kernel's 256
	// bytes or a second part off the 16-byte grid.
	dir = "internal/crc32c/testdata/fuzz/FuzzUpdate"
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	write(dir, "seed-fold-stages", entry(msg[:256+64+16+5], int64(0)))
	write(dir, "seed-split-below-fold", entry(msg[:300], int64(255)))
	write(dir, "seed-split-unaligned", entry(msg, int64(333)))

	fmt.Println("corpora regenerated")
}
