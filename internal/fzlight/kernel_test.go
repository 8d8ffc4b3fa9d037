package fzlight

// The SIMD block kernels against the portable codecs they must reproduce:
// encoded bytes, bytes consumed, decoded float bits and typed errors.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"hzccl/internal/telemetry"
)

// TestMain runs the package's tests as dispatched and, where that selected
// the SIMD kernels, once more with the dispatch variable forced to the
// portable path, so every test in the package pins both. Benchmarks and
// fuzzing sessions run once, as dispatched.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useKernels && flagUnset("test.bench") && flagUnset("test.fuzz") && flagUnset("test.fuzzworker") && flagUnset("test.list") {
		fmt.Println("fzlight: SIMD kernels passed; running the suite again on the portable path")
		useKernels = false
		code = m.Run()
	}
	os.Exit(code)
}

func flagUnset(name string) bool {
	f := flag.Lookup(name)
	return f == nil || f.Value.String() == "" || f.Value.String() == "false"
}

// withPath runs f with the dispatch variable set to kernels, which a CPU
// without the kernels cannot select.
func withPath(kernels bool, f func()) {
	defer func(old bool) { useKernels = old }(useKernels)
	useKernels = kernels && haveKernels()
	f()
}

// A kernel case is one byte string read three ways: bytes 0–7 are the
// float64 scale (recip for the encoder, 2·eb for the decoder; anything not
// positive and finite reads as 1), bytes 8–11 the int32 carried into the
// block (qprev, acc), and the rest both 32 float32 values to encode and a
// block stream to decode.
func kernelCase(scale float64, carry int32, body []byte) []byte {
	b := make([]byte, 12, 12+len(body))
	binary.LittleEndian.PutUint64(b, math.Float64bits(scale))
	binary.LittleEndian.PutUint32(b[8:], uint32(carry))
	return append(b, body...)
}

func floatBody(v *[32]float32) []byte {
	b := make([]byte, 128)
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return b
}

func parseKernelCase(b []byte) (scale float64, carry int32, blk [32]float32, stream []byte) {
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
	var fb [128]byte
	copy(fb[:], stream)
	for i := range blk {
		blk[i] = math.Float32frombits(binary.LittleEndian.Uint32(fb[4*i:]))
	}
	return
}

// kernelWidths are the code lengths the seeds must reach: both sides of
// every byte-plane boundary and the extremes.
var kernelWidths = []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 30, 31}

// widthBlock returns values whose deltas, at scale recip, need exactly w
// bits, with noise in all the lower bits.
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
	add := func(scale float64, carry int32, v *[32]float32) {
		seeds = append(seeds, kernelCase(scale, carry, floatBody(v)))
	}
	for _, w := range kernelWidths {
		v, recip := widthBlock(w, rng)
		add(recip, 0, &v)
	}
	// Exact ties. The product 3(k+½)·⅓ rounds to k+½ although ⅓ < 1/3, so
	// two roundings give k+1 where one fused rounding would give k.
	var v [32]float32
	for i := range v {
		v[i] = 3 * (float32(i-16) + 0.5)
	}
	add(1.0/3, -5, &v)
	for i := range v {
		v[i] = float32(i-16) + 0.5
	}
	add(1, 3, &v)
	// The edges of the range: ±(2^29−1) quanta pass, ±2^29 do not.
	const edge = 1<<29 - 32
	for _, sign := range []float32{1, -1} {
		v = [32]float32{}
		v[5], v[6] = sign*edge, -sign*edge
		add((1<<29-1)/float64(edge), 0, &v)
		v[31] = sign * (1 << 29)
		add(1, 0, &v)
		add(1, int32(sign)*(1<<29), &v)
	}
	// NaN and ±Inf in every lane; a later lane holds a plain range error, so
	// "the first offending value decides" is visible in the typed error.
	for lane := 0; lane < 32; lane++ {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			v, _ = widthBlock(9, rng)
			v[lane] = bad
			v[(lane+11)%32] = 3e30
			add(1.25, 77, &v)
		}
	}
	// −0, denormals and a float32 that overflows the range by itself.
	v = [32]float32{}
	v[0], v[1], v[2], v[3] = float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40
	add(1, 0, &v)
	add(1e300, 0, &v)
	v[9] = math.MaxFloat32
	add(1e-300, 0, &v)

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
	return seeds
}

// diffKernels runs one case through both block encoders, both block
// decoders and both chunk codecs and fails on any difference.
func diffKernels(t *testing.T, b []byte) {
	t.Helper()
	scale, carry, blk, stream := parseKernelCase(b)

	// Block encoder. The chain invariant |qprev| ≤ 2^29 is the caller's.
	qprev := carry % (1<<29 + 1)
	var dstP, dstK [kernelDst]byte
	var scratch [32]uint32
	qP := qprev
	nP, errP := encodeBlock32(dstP[:], blk[:], scale, &qP, &scratch)
	nK, qK, ok := encodeBlock32Fast(dstK[:], blk[:], scale, qprev)
	switch {
	case errP != nil && ok:
		t.Fatalf("encode: portable rejects the block (%v), kernel accepts it", errP)
	case errP == nil && !ok:
		t.Fatalf("encode: kernel refuses a block the portable encoder takes (c=%d)", dstP[0])
	case ok && (nK != nP || qK != qP || !bytes.Equal(dstK[:nK], dstP[:nP])):
		t.Fatalf("encode: kernel n=%d q=%d % x\n      portable n=%d q=%d % x", nK, qK, dstK[:nK], nP, qP, dstP[:nP])
	}
	if _, _, ok := encodeBlock32Fast(dstK[:kernelDst-1], blk[:], scale, qprev); ok {
		t.Fatal("encode: kernel ran on a destination shorter than its contract")
	}

	// Chunk encoder: the block in second and third position (the first
	// block hosts the outlier and is portable on both paths).
	data := make([]float32, 96)
	copy(data[32:], blk[:])
	copy(data[64:], blk[:])
	var chunkP, chunkK []byte
	var cerrP, cerrK error
	for _, kernels := range []bool{false, true} {
		withPath(kernels, func() {
			dst := make([]byte, worstChunkBytes(len(data), 32))
			n, err := compressChunk(dst, data, scale, 32)
			if kernels {
				chunkK, cerrK = dst[:n], err
			} else {
				chunkP, cerrP = dst[:n], err
			}
		})
	}
	if cerrP != cerrK || !bytes.Equal(chunkP, chunkK) {
		t.Fatalf("compressChunk: kernel (%d bytes, %v) != portable (%d bytes, %v)", len(chunkK), cerrK, len(chunkP), cerrP)
	}

	// Block decoder on the raw stream.
	var outP, outK [32]float32
	accP := carry
	usedP, derrP := decodeBlock32(stream, outP[:], &accP, scale, &scratch)
	usedK, accK, ok := decodeBlock32Fast(stream, outK[:], carry, scale)
	if ok {
		if derrP != nil || usedK != usedP || accK != accP {
			t.Fatalf("decode: kernel used=%d acc=%d, portable used=%d acc=%d err=%v", usedK, accK, usedP, accP, derrP)
		}
		if !sameBits(outK[:], outP[:]) {
			t.Fatalf("decode (c=%d): kernel %v\n      portable %v", stream[0], outK, outP)
		}
	} else if len(stream) > 0 {
		c := int(stream[0])
		if c <= 30 && len(stream) >= 5+32*(c/8)+4*(c%8)+8 {
			t.Fatalf("decode: kernel refused a block inside its contract (c=%d, %d bytes)", c, len(stream))
		}
		if accK != carry {
			t.Fatal("decode: refused block changed the accumulator")
		}
	}

	// Chunk decoder on as many whole blocks as the stream holds.
	end, blocks := 0, 0
	for blocks < 8 && end < len(stream) {
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
	var decP, decK []float32
	var xerrP, xerrK error
	for _, kernels := range []bool{false, true} {
		withPath(kernels, func() {
			dst := make([]float32, 32*blocks)
			err := decompressChunk(src, dst, scale, 32)
			if kernels {
				decK, xerrK = dst, err
			} else {
				decP, xerrP = dst, err
			}
		})
	}
	if (xerrP == nil) != (xerrK == nil) || errors.Is(xerrP, ErrCorrupt) != errors.Is(xerrK, ErrCorrupt) {
		t.Fatalf("decompressChunk: kernel err %v, portable err %v", xerrK, xerrP)
	}
	if xerrP == nil && !sameBits(decK, decP) {
		t.Fatalf("decompressChunk: kernel %v\n      portable %v", decK, decP)
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

func needKernels(t testing.TB) {
	if !haveKernels() {
		t.Skip("no SIMD block kernels on this CPU")
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
		if _, err := encodeBlock32(dst[:], v[:], recip, &q, &scratch); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if int(dst[0]) != w {
			t.Errorf("width seed %d encodes with code length %d", w, dst[0])
		}
	}
	v, _ := widthBlock(9, rand.New(rand.NewSource(19)))
	v[3], v[2] = float32(math.NaN()), 3e30
	data := append(make([]float32, 32), v[:]...)
	for _, kernels := range []bool{false, true} {
		withPath(kernels, func() {
			dst := make([]byte, worstChunkBytes(len(data), 32))
			if _, err := compressChunk(dst, data, 1.25, 32); err != ErrRange {
				t.Errorf("kernels=%v: range error in lane 2 before a NaN in lane 3: got %v, want ErrRange", kernels, err)
			}
		})
	}
}

func TestKernelsMatchPortable(t *testing.T) {
	needKernels(t)
	for _, s := range kernelSeeds() {
		diffKernels(t, s)
	}
	// Random blocks at every width, random scales and carries, and the
	// encoder's own output (plus noise) as decode streams.
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		w := rng.Intn(32)
		v, recip := widthBlock(w, rng)
		if w != 31 && rng.Intn(4) == 0 {
			recip *= math.Exp(rng.NormFloat64())
		}
		switch rng.Intn(8) {
		case 0:
			v[rng.Intn(32)] = float32(math.NaN())
		case 1:
			v[rng.Intn(32)] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case 2:
			v[rng.Intn(32)] = float32(float64(1<<29) / recip)
		}
		carry := int32(rng.Uint32())
		diffKernels(t, kernelCase(recip, carry, floatBody(&v)))

		var dst [kernelDst]byte
		var scratch [32]uint32
		var q int32
		if n, err := encodeBlock32(dst[:], v[:], recip, &q, &scratch); err == nil {
			stream := append([]byte(nil), dst[:n+rng.Intn(12)]...)
			if rng.Intn(3) == 0 {
				stream[rng.Intn(len(stream))] ^= byte(1 << rng.Intn(8))
			}
			diffKernels(t, kernelCase(2/recip, carry, stream))
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
				for k, kernels := range []bool{false, true} {
					withPath(kernels, func() {
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

// The telemetry snapshot says which path the process is on.
func TestSIMDGaugeReportsThePath(t *testing.T) {
	for _, kernels := range []bool{false, haveKernels()} {
		withPath(kernels, func() {
			want := map[bool]float64{false: 0, true: 1}[kernels]
			if got := telemetry.Capture().Gauges["fzlight.simd_kernels"]; got != want {
				t.Errorf("useKernels=%v: fzlight.simd_kernels = %g, want %g", kernels, got, want)
			}
		})
	}
}
