package fzlight

// The SIMD block kernels against the portable codecs they must reproduce:
// encoded bytes, bytes consumed, decoded float bits and typed errors.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"hzccl/internal/datasets"
	"hzccl/internal/metrics"
	"hzccl/internal/simd"
	"hzccl/internal/simd/simdtest"
	"hzccl/internal/telemetry"
)

// TestMain runs the package's tests once at each kernel level the CPU has,
// from the highest down to the portable codecs, so every test in the
// package pins each. Benchmarks and fuzzing sessions run once, as
// dispatched.
func TestMain(m *testing.M) {
	os.Exit(simdtest.Main(m, "fzlight", &level, simd.AVX512, simd.AVX2, simd.Portable))
}

// withPath runs f at kernel level l, or at the CPU's highest if that is
// lower: a test cannot select kernels the CPU lacks.
func withPath(l simd.Level, f func()) {
	defer func(old simd.Level) { level = old }(level)
	level = min(l, simd.CPU)
	f()
}

// A kernel case is one byte string read three ways: bytes 0–7 are the
// float64 scale (recip for the encoder, 2·eb for the decoder; anything not
// positive and finite reads as 1), bytes 8–11 the int32 carried into the
// run (qprev, acc), and the rest both a run of float32 blocks to encode —
// as many whole 128-byte blocks as it holds, at least one (zero-padded) and
// at most maxCaseBlocks — and a block stream to decode.
func kernelCase(scale float64, carry int32, body []byte) []byte {
	b := make([]byte, 12, 12+len(body))
	binary.LittleEndian.PutUint64(b, math.Float64bits(scale))
	binary.LittleEndian.PutUint32(b[8:], uint32(carry))
	return append(b, body...)
}

const maxCaseBlocks = 16

func floatBody(run ...[32]float32) []byte {
	b := make([]byte, 0, 128*len(run))
	for _, x := range flat(run...) {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// flat lays the blocks of a run end to end.
func flat(run ...[32]float32) []float32 {
	v := make([]float32, 0, 32*len(run))
	for i := range run {
		v = append(v, run[i][:]...)
	}
	return v
}

func parseKernelCase(b []byte) (scale float64, carry int32, blk []float32, stream []byte) {
	var head [12]byte
	copy(head[:], b)
	scale = math.Float64frombits(binary.LittleEndian.Uint64(head[:]))
	if !(scale > 0) || math.IsInf(scale, 0) {
		scale = 1
	}
	carry = int32(binary.LittleEndian.Uint32(head[8:]))
	if len(b) > 12 {
		stream = b[12:]
	}
	fb := make([]byte, 128*min(max(len(stream)/128, 1), maxCaseBlocks))
	copy(fb, stream)
	blk = make([]float32, len(fb)/4)
	for i := range blk {
		blk[i] = math.Float32frombits(binary.LittleEndian.Uint32(fb[4*i:]))
	}
	return
}

// kernelWidths are the code lengths the seeds must reach: both sides of
// every byte-plane boundary and the extremes.
var kernelWidths = []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 30, 31}

// widthBlock returns values whose deltas, at scale recip and after a
// carried qprev of 0, need exactly w bits, with noise in all the lower
// bits.
func widthBlock(w int, rng *rand.Rand) (v [32]float32, recip float64) {
	recip = 1.25
	if w == 0 {
		return v, recip
	}
	if w == 31 {
		// ±2^29 quanta are reachable only by rounding up from just below:
		// x = 2^29 − ¼ passes the range test and floor(x + ½) = 2^29.
		const big = 1<<29 - 32 // float32-exact
		recip = (1<<29 - 0.25) / big
		for i := range v {
			v[i] = big
			if i%2 == 1 {
				v[i] = -big
			}
		}
		v[7], v[20] = 12345.678, -0.3
		return v, recip
	}
	half := math.Ldexp(1, w-1) // deltas reach [2^(w−1), 2^w)
	for i := range v {
		q := rng.Float64() * half / 2
		if i%2 == 1 {
			q = -q
		}
		v[i] = float32(q / recip)
	}
	v[0], v[1] = float32(0.49*half/recip), float32(-0.6*half/recip)
	return v, recip
}

func kernelSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	var seeds [][]byte
	add := func(scale float64, carry int32, run ...[32]float32) {
		seeds = append(seeds, kernelCase(scale, carry, floatBody(run...)))
	}
	for _, w := range kernelWidths {
		v, recip := widthBlock(w, rng)
		add(recip, 0, v)
	}
	// Exact ties. The product 3(k+½)·⅓ rounds to k+½ although ⅓ < 1/3, so
	// two roundings give k+1 where one fused rounding would give k.
	var v [32]float32
	for i := range v {
		v[i] = 3 * (float32(i-16) + 0.5)
	}
	add(1.0/3, -5, v)
	for i := range v {
		v[i] = float32(i-16) + 0.5
	}
	add(1, 3, v)
	// The edges of the range: ±(2^29−1) quanta pass, ±2^29 do not.
	const edge = 1<<29 - 32
	for _, sign := range []float32{1, -1} {
		v = [32]float32{}
		v[5], v[6] = sign*edge, -sign*edge
		add((1<<29-1)/float64(edge), 0, v)
		v[31] = sign * (1 << 29)
		add(1, 0, v)
		add(1, int32(sign)*(1<<29), v)
	}
	// NaN and ±Inf in every lane; a later lane holds a plain range error, so
	// "the first offending value decides" is visible in the typed error.
	for lane := 0; lane < 32; lane++ {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			v, _ = widthBlock(9, rng)
			v[lane] = bad
			v[(lane+11)%32] = 3e30
			add(1.25, 77, v)
		}
	}
	// −0, denormals and a float32 that overflows the range by itself.
	v = [32]float32{}
	v[0], v[1], v[2], v[3] = float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40
	add(1, 0, v)
	add(1e300, 0, v)
	v[9] = math.MaxFloat32
	add(1e-300, 0, v)

	// Runs: every width up to 30 beside constant blocks, and runs a bad
	// value stops in the middle.
	var run [][32]float32
	for _, w := range kernelWidths[:len(kernelWidths)-1] {
		v, _ := widthBlock(w, rng)
		run = append(run, v, [32]float32{})
	}
	add(1.25, 3, run[:maxCaseBlocks]...)
	add(1.25, -9, run[len(run)-maxCaseBlocks:]...)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1)), 3e30} {
		r := append([][32]float32(nil), run[2:10]...)
		r[5][17] = bad
		add(1.25, 0, r...)
	}

	// Hostile decode streams: every width at full magnitude from an
	// accumulator at the int32 edge, so the prefix sum wraps; markers the
	// kernel must refuse; and streams that stop short of the 8-byte slack.
	for c := 0; c <= 33; c++ {
		blk := []byte{byte(c), 0, 0xFF, 0x0F, 0x80}
		for i := 0; i < 32*(c/8)+4*(c%8); i++ {
			blk = append(blk, 0xFF-byte(i))
		}
		for _, slack := range []int{0, 7, 8, 40} {
			seeds = append(seeds, kernelCase(0.002, math.MaxInt32-3, append(blk[:len(blk):len(blk)], make([]byte, slack)...)))
		}
		seeds = append(seeds, kernelCase(1e30, math.MinInt32, blk[:len(blk)/2]))
	}
	// Decode runs: every width 0–32 behind a constant block, so markers 31
	// and 32 stop the kernel in the middle of a run.
	for c := 0; c <= 32; c++ {
		s := blockStream(widthDeltas(rng, 7), [32]int32{}, widthDeltas(rng, c), widthDeltas(rng, 3), [32]int32{})
		seeds = append(seeds, kernelCase(0.002, 12345, append(s, make([]byte, c%9)...)))
	}
	return seeds
}

// diffKernels runs one case through the run kernels of the suite's level,
// the portable block codecs and both chunk codecs and fails on any
// difference.
func diffKernels(t *testing.T, b []byte) {
	t.Helper()
	scale, carry, blk, stream := parseKernelCase(b)
	diffEncodeRun(t, blk, scale, carry%(1<<29+1)) // the chain invariant |qprev| ≤ 2^29 is the caller's
	diffDecodeRun(t, stream, scale, carry)

	// Chunk encoder: the run twice, behind a first block (which hosts the
	// outlier and is portable on both paths).
	data := append(append(make([]float32, 32), blk...), blk...)
	var chunk [2][]byte
	var cerr [2]error
	for k, l := range []simd.Level{simd.Portable, level} {
		withPath(l, func() {
			dst := make([]byte, worstChunkBytes(len(data), 32))
			n, err := compressChunk(dst, data, scale, 32, 0, true)
			chunk[k], cerr[k] = dst[:n], err
		})
	}
	if cerr[0] != cerr[1] || !bytes.Equal(chunk[0], chunk[1]) {
		t.Fatalf("compressChunk: %v (%d bytes, %v) != portable (%d bytes, %v)", level, len(chunk[1]), cerr[1], len(chunk[0]), cerr[0])
	}

	// Chunk decoder on as many whole blocks as the stream holds.
	end, blocks := 0, 0
	for blocks < maxCaseBlocks && end < len(stream) {
		n, err := BlockBytes(stream[end:], 32)
		if err != nil {
			break
		}
		end += n
		blocks++
	}
	src := make([]byte, 4+end)
	putInt32(src, carry)
	copy(src[4:], stream[:end])
	var dec [2][]float32
	var xerr [2]error
	for k, l := range []simd.Level{simd.Portable, level} {
		withPath(l, func() {
			dec[k] = make([]float32, 32*blocks)
			xerr[k] = decompressChunk(src, dec[k], nil, scale, 32)
		})
	}
	if (xerr[0] == nil) != (xerr[1] == nil) || errors.Is(xerr[0], ErrCorrupt) != errors.Is(xerr[1], ErrCorrupt) {
		t.Fatalf("decompressChunk: %v err %v, portable err %v", level, xerr[1], xerr[0])
	}
	if xerr[0] == nil && !sameBits(dec[1], dec[0]) {
		t.Fatalf("decompressChunk: %v %v\n      portable %v", level, dec[1], dec[0])
	}
	if xerr[0] != nil {
		return
	}

	// The same decoder adding onto sums (the case's bytes as floats, NaN
	// payloads and all), into a disjoint vector and in place: the plain
	// decode followed by the float32 add, bit for bit, at both levels.
	sums := sumsFrom(b, 32*blocks)
	want := make([]float32, len(sums))
	for i := range want {
		want[i] = sums[i] + dec[0][i]
	}
	for _, l := range []simd.Level{simd.Portable, level} {
		withPath(l, func() {
			dst := make([]float32, len(sums))
			acc := append([]float32(nil), sums...)
			if err := decompressChunk(src, dst, sums, scale, 32); err != nil || !sameBits(dst, want) {
				t.Fatalf("decompressChunk onto sums at %v: err %v, bits differ from decode + add", l, err)
			}
			if err := decompressChunk(src, acc, acc, scale, 32); err != nil || !sameBits(acc, want) {
				t.Fatalf("decompressChunk onto sums in place at %v: err %v, bits differ from decode + add", l, err)
			}
		})
	}
}

// encodeChain is the portable encoder on a run, block by block, up to the
// first error: off[i] and q[i] are the bytes written and the value carried
// after i blocks.
func encodeChain(blk []float32, recip float64, qprev int32) (dst []byte, off []int, q []int32, err error) {
	dst = make([]byte, len(blk)/32*kernelDst)
	off, q = []int{0}, []int32{qprev}
	var scratch [32]uint32
	for i := 0; i < len(blk); i += 32 {
		n, err := encodeBlock32(dst[off[len(off)-1]:], blk[i:i+32], recip, &qprev, &scratch)
		if err != nil {
			return dst, off, q, err
		}
		off, q = append(off, off[len(off)-1]+n), append(q, qprev)
	}
	return dst, off, q, nil
}

// decodeChain is the portable decoder on a stream, block by block, up to
// the first error or n blocks: off[i] and acc[i] are the bytes used and the
// accumulator after i blocks.
func decodeChain(src []byte, n int, eb2 float64, acc int32) (out []float32, off []int, accs []int32) {
	out = make([]float32, 32*n)
	off, accs = []int{0}, []int32{acc}
	var scratch [32]uint32
	for i := 0; i < n; i++ {
		u, err := decodeBlock32(src[off[i]:], out[32*i:32*i+32], nil, &acc, eb2, &scratch)
		if err != nil {
			break
		}
		off, accs = append(off, off[i]+u), append(accs, acc)
	}
	return out, off, accs
}

// diffEncodeRun checks the encode kernel on a run against encodeChain: the
// blocks it takes are a prefix of the portable chain, byte for byte with
// the same carried value; it stops only at a block the portable encoder
// rejects or gives code length 32; and with fewer than kernelDst bytes of
// dst left at its last block it stops in front of that block.
func diffEncodeRun(t *testing.T, blk []float32, recip float64, qprev int32) {
	t.Helper()
	want, off, qs, err := encodeChain(blk, recip, qprev)
	took := len(off) - 1
	check := func(what string, dst []byte, wantK int) {
		t.Helper()
		w, k, q := encodeRun32(dst, blk, recip, qprev)
		if k > took {
			t.Fatalf("encode %s: kernel took block %d, which the portable encoder rejects (%v)", what, took, err)
		}
		if k != wantK || w != off[k] || q != qs[k] || !bytes.Equal(dst[:w], want[:w]) {
			t.Fatalf("encode %s: kernel did %d blocks, %d bytes, q=%d; want %d blocks; portable at %d: %d bytes, q=%d",
				what, k, w, q, wantK, k, off[k], qs[k])
		}
	}
	dst := make([]byte, len(want)+kernelDst)
	_, k, _ := encodeRun32(dst, blk, recip, qprev)
	if k < took && want[off[k]] != 32 {
		t.Fatalf("encode: kernel refused block %d (c=%d), which the portable encoder takes", k, want[off[k]])
	}
	check("run", dst, k)
	if k > 0 {
		check("with dst a byte short at the last block", make([]byte, off[k-1]+kernelDst-1), k-1)
		check("with dst exactly kernelDst at the last block", make([]byte, off[k-1]+kernelDst), k)
	}
}

// diffDecodeRun checks the decode kernel on a stream against decodeChain:
// the blocks it takes are a prefix of the portable chain, bit for bit with
// the same accumulator; it stops only at a marker above 30 or a block
// without 8 bytes of slack; and with the stream ending at, or 7 bytes
// past, its last block it stops in front of that block.
func diffDecodeRun(t *testing.T, stream []byte, eb2 float64, acc int32) {
	t.Helper()
	want, off, accs := decodeChain(stream, maxCaseBlocks, eb2, acc)
	took := len(off) - 1
	check := func(what string, src []byte, wantK int) {
		t.Helper()
		out := make([]float32, 32*maxCaseBlocks)
		u, k, a := decodeRun32(src, out, nil, acc, eb2)
		if k > took {
			t.Fatalf("decode %s: kernel took block %d, which the portable decoder rejects", what, took)
		}
		if k != wantK || u != off[k] || a != accs[k] || !sameBits(out[:32*k], want[:32*k]) {
			t.Fatalf("decode %s: kernel did %d blocks, used %d, acc=%d; want %d blocks; portable at %d: used %d, acc=%d",
				what, k, u, a, wantK, k, off[k], accs[k])
		}
	}
	_, k, _ := decodeRun32(stream, make([]float32, 32*maxCaseBlocks), nil, acc, eb2)
	if rest := stream[off[min(k, took)]:]; k < maxCaseBlocks && len(rest) > 0 && rest[0] <= 30 &&
		(rest[0] == 0 || len(rest) >= 5+32*int(rest[0]>>3)+4*int(rest[0]&7)+8) {
		t.Fatalf("decode: kernel refused block %d inside its contract (c=%d, %d bytes left)", k, rest[0], len(rest))
	}
	check("run", stream, k)
	if k > 0 && stream[off[k-1]] != 0 {
		check("ending at its last block", stream[:off[k]], k-1)
		check("ending 7 bytes past its last block", stream[:off[k]+7], k-1)
	}
}

// sameBits compares two float32 slices by representation.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// needKernels skips a test of the kernels in the suite's portable pass;
// the passes above it run the kernels of their own level.
func needKernels(t testing.TB) {
	if level == simd.Portable {
		t.Skip("no SIMD block kernels at this level")
	}
}

// The seeds must really reach the widths they are named for, on the encode
// side, and the typed error must be the first offending value's.
func TestKernelSeedsCoverWidths(t *testing.T) {
	seeds := kernelSeeds() // the width seeds come first, in kernelWidths order
	for i, w := range kernelWidths {
		recip, _, v, _ := parseKernelCase(seeds[i])
		var dst [kernelDst]byte
		var q int32
		var scratch [32]uint32
		if _, err := encodeBlock32(dst[:], v[:32], recip, &q, &scratch); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if int(dst[0]) != w {
			t.Errorf("width seed %d encodes with code length %d", w, dst[0])
		}
	}
	v, _ := widthBlock(9, rand.New(rand.NewSource(19)))
	v[3], v[2] = float32(math.NaN()), 3e30
	data := append(make([]float32, 32), v[:]...)
	for _, l := range []simd.Level{simd.Portable, level} {
		withPath(l, func() {
			dst := make([]byte, worstChunkBytes(len(data), 32))
			if _, err := compressChunk(dst, data, 1.25, 32, 0, true); err != ErrRange {
				t.Errorf("%v: range error in lane 2 before a NaN in lane 3: got %v, want ErrRange", l, err)
			}
		})
	}
}

func TestKernelsMatchPortable(t *testing.T) {
	needKernels(t)
	for _, s := range kernelSeeds() {
		diffKernels(t, s)
	}
	// Random runs: every width, constant blocks, now and then a bad value,
	// random scales and carries; then the encoder's own output (plus noise)
	// and delta streams of every width 0–32 as decode streams.
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 1500; i++ {
		n := 1 + rng.Intn(maxCaseBlocks)
		recip := 1.25
		if rng.Intn(4) == 0 {
			recip *= math.Exp(rng.NormFloat64())
		}
		run := make([][32]float32, n)
		for j := range run {
			run[j], _ = widthBlock(rng.Intn(31)*min(1, rng.Intn(4)), rng)
			switch rng.Intn(3 * n) {
			case 0:
				run[j][rng.Intn(32)] = float32(math.NaN())
			case 1:
				run[j][rng.Intn(32)] = float32(math.Inf(1 - 2*rng.Intn(2)))
			case 2:
				run[j][rng.Intn(32)] = float32(float64(1<<29) / recip)
			}
		}
		carry := int32(rng.Uint32())
		diffKernels(t, kernelCase(recip, carry, floatBody(run...)))

		enc, off, _, _ := encodeChain(flat(run...), recip, carry%(1<<29+1))
		stream := append([]byte(nil), enc[:off[len(off)-1]+rng.Intn(12)]...)
		if len(stream) > 0 && rng.Intn(3) == 0 {
			stream[rng.Intn(len(stream))] ^= byte(1 << rng.Intn(8))
		}
		diffKernels(t, kernelCase(2/recip, carry, stream))

		deltas := make([][32]int32, n)
		for j := range deltas {
			deltas[j] = widthDeltas(rng, rng.Intn(33)*min(1, rng.Intn(3)))
		}
		diffKernels(t, kernelCase(0.001+rng.Float64(), carry, append(blockStream(deltas...), make([]byte, rng.Intn(12))...)))
	}
}

// Every reason to stop, in the middle of a run: the kernel takes the five
// blocks in front of it and returns what the portable codec has after
// those five, which then takes the sixth.
func TestKernelRunsStopInTheMiddle(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(27))
	var run [][32]float32
	for _, w := range []int{9, 0, 17, 3, 24, 20, 12, 0} {
		v, _ := widthBlock(w, rng)
		run = append(run, v)
	}
	encodes := func(what string, r [][32]float32, room func(off []int) int) {
		t.Helper()
		blk := flat(r...)
		want, off, qs, _ := encodeChain(blk, 1.25, 7)
		dst := make([]byte, room(off))
		if w, k, q := encodeRun32(dst, blk, 1.25, 7); k != 5 || w != off[5] || q != qs[5] || !bytes.Equal(dst[:w], want[:w]) {
			t.Fatalf("encode, %s at block 5: kernel did %d blocks, %d bytes, q=%d; portable after 5: %d bytes, q=%d", what, k, w, q, off[5], qs[5])
		}
	}
	plenty := func(off []int) int { return off[len(off)-1] + kernelDst }
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), 1e30} {
		r := append([][32]float32(nil), run...)
		r[5][11] = bad
		encodes(fmt.Sprint(bad), r, plenty)
	}
	encodes("dst short of kernelDst", run, func(off []int) int { return off[5] + kernelDst - 1 })
	// A code length of 32 needs a carried value outside the chain
	// invariant, so it can only stop a run at its first block.
	if _, k, q := encodeRun32(make([]byte, 2*kernelDst), make([]float32, 64), 1, math.MinInt32); k != 0 || q != math.MinInt32 {
		t.Fatalf("encode, code length 32: kernel did %d blocks, q=%d", k, q)
	}

	deltas := [][32]int32{widthDeltas(rng, 9), {}, widthDeltas(rng, 17), widthDeltas(rng, 3), widthDeltas(rng, 24)}
	head := blockStream(deltas...)
	b5 := blockStream(widthDeltas(rng, 20))
	tail := blockStream(widthDeltas(rng, 12), [32]int32{})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for what, s := range map[string][]byte{
		"marker 31":                 cat(head, blockStream(widthDeltas(rng, 31)), tail),
		"marker 32":                 cat(head, blockStream(widthDeltas(rng, 32)), tail),
		"marker 33":                 cat(head, []byte{33, 1, 2, 3, 4, 5, 6, 7, 8}, tail),
		"a block without its slack": cat(head, b5, make([]byte, 7)),
		"the stream's last block":   cat(head, b5),
		"a truncated block":         cat(head, b5[:len(b5)-3]),
	} {
		want, off, accs := decodeChain(s, 8, 0.002, 5)
		out := make([]float32, 32*8)
		if u, k, a := decodeRun32(s, out, nil, 5, 0.002); k != 5 || u != off[5] || a != accs[5] || !sameBits(out[:160], want[:160]) {
			t.Fatalf("decode, %s at block 5: kernel did %d blocks, used %d, acc=%d; portable after 5: used %d, acc=%d", what, k, u, a, off[5], accs[5])
		}
	}
}

// FuzzBlockKernels is the differential fuzz target: any byte string, read
// as in kernelCase, must come out of the kernels and the portable codecs
// identically.
func FuzzBlockKernels(f *testing.F) {
	needKernels(f)
	for _, s := range kernelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { diffKernels(t, b) })
}

// Whole containers: every dataset-like field, single- and multi-chunk,
// compresses to the same bytes and decompresses to the same bits on both
// paths (the golden vectors pin the bytes themselves).
func TestKernelContainersMatchPortable(t *testing.T) {
	needKernels(t)
	for _, n := range []int{31, 32, 33, 64, 65, 1000, 4097, 1 << 15} {
		for _, threads := range []int{1, 3} {
			for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
				data := smoothField(n, int64(n))
				p := Params{ErrorBound: eb, Threads: threads}
				var comp [2][]byte
				var dec [2][]float32
				for k, l := range []simd.Level{simd.Portable, level} {
					withPath(l, func() {
						c, err := Compress(data, p)
						if err != nil {
							t.Fatal(err)
						}
						d, err := Decompress(c)
						if err != nil {
							t.Fatal(err)
						}
						comp[k], dec[k] = c, d
					})
				}
				if !bytes.Equal(comp[0], comp[1]) {
					t.Fatalf("n=%d threads=%d eb=%g: containers differ", n, threads, eb)
				}
				if !sameBits(dec[0], dec[1]) {
					t.Fatalf("n=%d threads=%d eb=%g: decoded values differ", n, threads, eb)
				}
			}
		}
	}
}

// The telemetry snapshot says which kernel level the process runs at. A
// -v run of this test logs the level the CPU selected, so a green run on a
// CPU without AVX-512 visibly did not run those kernels.
func TestSIMDGaugeReportsThePath(t *testing.T) {
	t.Logf("this CPU selects kernel level %d (%v); the suite is running at %v", simd.CPU, simd.CPU, level)
	for l := simd.Portable; l <= simd.CPU; l++ {
		withPath(l, func() {
			if got := telemetry.Capture().Gauges["fzlight.simd_kernels"]; got != float64(l) {
				t.Errorf("level %v: fzlight.simd_kernels = %g, want %d", l, got, l)
			}
		})
	}
}

// The AVX-512 kernels against the AVX2 ones on real fields: every dataset,
// at lengths off the block and segment boundaries and at two error bounds,
// split into 1–8 segments per chunk, gives the same container and decodes
// to the same bits at both levels.
func TestAVX512MatchesAVX2(t *testing.T) {
	if simd.CPU < simd.AVX512 {
		t.Skip("no AVX-512 on this CPU")
	}
	if level != simd.AVX512 {
		t.Skip("runs once, in the AVX-512 pass")
	}
	const n = 3*4096 + 32*5 + 7
	for _, name := range datasets.Names() {
		field, err := datasets.Field(name, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, length := range []int{33, 32*97 + 31, n} {
			for _, rel := range []float64{1e-2, 1e-5} {
				p := Params{ErrorBound: rel * maxAbs(field), Threads: 2}
				for segs := 1; segs <= 8; segs++ {
					var comp [2][]byte
					var dec [2][]float32
					for k, l := range []simd.Level{simd.AVX2, simd.AVX512} {
						withPath(l, func() {
							if comp[k], err = compressSegments(field[:length], p, segs); err == nil {
								dec[k], err = Decompress(comp[k])
							}
						})
						if err != nil {
							t.Fatalf("%s n=%d rel=%g segs=%d, %v: %v", name, length, rel, segs, l, err)
						}
					}
					if !bytes.Equal(comp[0], comp[1]) || !sameBits(dec[0], dec[1]) {
						t.Fatalf("%s n=%d rel=%g segs=%d: AVX-512 and AVX2 differ", name, length, rel, segs)
					}
				}
			}
		}
	}
}

// BenchmarkKernelLevels times encode (a one-chunk container on one core),
// decode and decode-and-add in place of each dataset at 1 Mi elements, at the benchmark's error
// bound (1e-4 of the field's range) and every kernel level the CPU has, in
// MB/s of float32 input:
//
//	go test -run '^$' -bench KernelLevels -benchtime 50x ./internal/fzlight
func BenchmarkKernelLevels(b *testing.B) {
	const n = 1 << 20
	for _, name := range datasets.Names() {
		field, err := datasets.Field(name, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		h := Header{Version: 1}.shape(n, Params{ErrorBound: metrics.AbsBound(1e-4, field)}.withDefaults())
		comp := make([]byte, h.Bound())
		size, err := compressSplit(comp, field, h, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		dst, out := make([]byte, h.Bound()), make([]float32, n)
		for l := simd.CPU; l >= simd.Portable; l-- {
			withPath(l, func() {
				b.Run(fmt.Sprintf("%s/%v/encode", name, l), func(b *testing.B) {
					b.SetBytes(4 * n)
					for i := 0; i < b.N; i++ {
						if _, err := compressSplit(dst, field, h, 1, 1); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("%s/%v/decode", name, l), func(b *testing.B) {
					b.SetBytes(4 * n)
					for i := 0; i < b.N; i++ {
						if err := DecompressInto(comp[:size], out); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("%s/%v/decode-add", name, l), func(b *testing.B) {
					b.SetBytes(4 * n)
					for i := 0; i < b.N; i++ {
						if err := DecompressAddInto(comp[:size], out, out); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
