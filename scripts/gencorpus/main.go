// Command gencorpus regenerates the committed fuzz seed corpora under the
// testdata/fuzz/ directories of internal/fzlight, internal/hzdyn and
// internal/conformance. Run it from the repository root after changing the
// on-disk format or the fuzz target signatures:
//
//	go run ./scripts/gencorpus
//
// The seeds are chosen to pin known-tricky paths: chunk outliers (the raw
// first quantized value each chunk carries), the hZ-dynamic overflow
// fallback (a folded stream whose next Add overflows int32), 2D/3D and
// float64 containers, and truncated/corrupt streams.
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
	d64 := make([]float64, 80)
	for i := range d64 {
		d64[i] = math.Cos(float64(i) / 11)
	}
	c64, err := fzlight.Compress64(d64, fzlight.Params{ErrorBound: eb})
	if err != nil {
		log.Fatal(err)
	}
	write(dir, "seed-float64", entry(c64))
	write(dir, "seed-truncated", entry(c1d[:len(c1d)/2]))

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

	// --- internal/hzdyn: FuzzHomomorphism([]byte, []byte) ---
	dir = "internal/hzdyn/testdata/fuzz/FuzzHomomorphism"
	write(dir, "seed-outlier", entry(
		floatsToBytes(outlierField(64)),
		floatsToBytes(sine(64, 0.7))))
	write(dir, "seed-cancellation", entry(
		floatsToBytes([]float32{5000, -5000, 2500, -2500}),
		floatsToBytes([]float32{-5000, 5000, -2500, 2500})))

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

	fmt.Println("corpora regenerated")
}
