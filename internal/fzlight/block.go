package fzlight

import (
	"fmt"
	"math"
	"math/bits"

	"hzccl/internal/bitio"
	"hzccl/internal/simd"
)

// This file holds the per-block codecs. Full 32-element blocks — the
// default and the only size the experiments use — take branchless
// specialized paths: the quantization loop folds sign extraction, magnitude
// computation and the running code-length OR into straight-line integer
// arithmetic, and sign bits are accumulated into a single machine word
// instead of a per-element byte loop. Other block sizes (and the tail
// block of a chunk) use the generic paths.

// level selects the block codecs for full blocks: the Go codecs in
// this file (simd.Portable), the AVX2+BMI2 kernels of block_amd64.s
// (simd.AVX2), or the same with 16-lane quantise and dequantise
// (simd.AVX512). It is the highest the CPU has, and only the package's
// tests ever lower it. The add kernel is the AVX2 one at either SIMD level.
var level = simd.CPU

// kernelDst is what the encode kernel may touch: the largest block
// (1 marker + 4 sign + 128 magnitude bytes) plus the 8 bytes of slack that
// worstChunkBytes reserves per block for the last 8-byte residual store.
const kernelDst = 1 + 4 + 128 + 8

// kernelRun caps the blocks handed to one kernel call: assembly cannot be
// preempted, and 1024 blocks keep a call near 30 µs.
const kernelRun = 1024

// The three wrappers below run a kernel (block_amd64.s) of the selected
// level over the full blocks at the head of their buffers, kernelRun at a
// time, and return in front of the first block it does not take, or at the
// end: the bytes used and written, the blocks done, and the state carried
// out of the last one. The caller's portable codec then takes that one
// block — and names its error, if it has one — and calls the wrapper
// again. At simd.Portable they do nothing.

// encodeRun32 stops in front of a value out of range or not finite, a code
// length of 32, or fewer than kernelDst bytes left of dst.
func encodeRun32(dst []byte, src []float32, recip float64, q int32) (wrote, done int, _ int32) {
	for level >= simd.AVX2 && len(src)-32*done >= 32 && len(dst)-wrote >= kernelDst {
		run := min((len(src)-32*done)/32, kernelRun)
		var w, k int
		var nq int32
		if level == simd.AVX512 {
			w, k, nq = encodeRun32K512(&dst[wrote], &src[32*done], len(dst)-wrote, run, recip, q)
		} else {
			w, k, nq = encodeRun32K(&dst[wrote], &src[32*done], len(dst)-wrote, run, recip, q)
		}
		wrote, done, q = wrote+w, done+k, nq
		if k < run {
			break
		}
	}
	return wrote, done, q
}

// decodeRun32 stops in front of a marker above 30 or a non-constant block
// without 8 bytes of src behind it — the stream's last, or a truncated one.
// With sums set (out itself, or as long as out and disjoint from it) it
// stores sums[i] + v in place of each decoded value v: the add on store.
func decodeRun32(src []byte, out, sums []float32, acc int32, eb2 float64) (used, done int, _ int32) {
	for level >= simd.AVX2 && len(out)-32*done >= 32 && used < len(src) {
		run := min((len(out)-32*done)/32, kernelRun)
		var s *float32
		if sums != nil {
			s = &sums[32*done]
		}
		var u, k int
		var a int32
		if level == simd.AVX512 {
			u, k, a = decodeRun32K512(&out[32*done], s, &src[used], len(src)-used, run, acc, eb2)
		} else {
			u, k, a = decodeRun32K(&out[32*done], s, &src[used], len(src)-used, run, acc, eb2)
		}
		used, done, acc = used+u, done+k, a
		if k < run {
			break
		}
	}
	return used, done, acc
}

// SumRun32 is hZ-dynamic on a run of full 32-element block pairs, for
// package hzdyn: starting at a[0] and b[0] it adds up to pairs consecutive
// block pairs into consecutive blocks at dst and counts in tally[p] (p =
// 1…4, the paper's numbering) the pairs pipeline p took. With dynamic set a
// constant block takes pipelines ①–③, which write a 0 marker or copy the
// other block; without it a constant block stops the run. Otherwise it
// stops in front of a marker above 30 (above 32 beside a constant block),
// a sum of code length 31, or a block without 8 bytes of slack behind it in
// a, b or dst; SumBlock and hzdyn's pipelines then take that pair. dst
// may be scribbled up to 8 bytes past wrote.
func SumRun32(dst, a, b []byte, pairs int, dynamic bool, tally *[5]int64) (wrote, usedA, usedB, done int) {
	// A pair the kernel took left 8 bytes behind it on all three sides, so
	// the slices below are never empty after the first call.
	for level >= simd.AVX2 && done < pairs && wrote < len(dst) && usedA < len(a) && usedB < len(b) {
		run := min(pairs-done, kernelRun)
		w, ua, ub, k := sumRun32K(&dst[wrote], &a[usedA], &b[usedB], len(dst)-wrote, len(a)-usedA, len(b)-usedB, run, dynamic, tally)
		wrote, usedA, usedB, done = wrote+w, usedA+ua, usedB+ub, done+k
		if k < run {
			break
		}
	}
	return wrote, usedA, usedB, done
}

// quantise is the codec's one quantisation rule: q = floor(x + 0.5) with
// x = v·recip (v the input value, widened exactly to float64), in two IEEE
// roundings — the product first, then the sum. The explicit conversion of
// the product forbids fusing the two into one multiply-add (which arm64,
// ppc64le, s390x and riscv64 would otherwise do), so every architecture,
// and the SIMD kernels, quantise exact ties k+½ the same way. A value is
// rejected when !(|x| < quantLimit).
func quantise(v, recip float64) (int32, error) {
	x := float64(v * recip)
	if !(x > -quantLimit && x < quantLimit) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, ErrNonFinite
		}
		return 0, ErrRange
	}
	return int32(math.Floor(x + 0.5)), nil // Floor compiles to a rounding instruction
}

// encodeBlock32 quantizes, predicts and encodes one full 32-element block.
// qprev carries the previous quantized value across blocks of a chunk.
func encodeBlock32(dst []byte, blk []float32, recip float64, qprev *int32, mscratch *[32]uint32) (int, error) {
	mbuf := mscratch
	var signW, ormag uint32
	q := *qprev
	blk = blk[:32]
	for i := 0; i < 32; i++ {
		qi, err := quantise(float64(blk[i]), recip)
		if err != nil {
			return 0, err
		}
		p := qi - q
		q = qi
		s := p >> 31 // 0 or -1
		m := uint32((p ^ s) - s)
		mbuf[i] = m
		signW |= uint32(s) & (1 << uint(i))
		ormag |= m
	}
	*qprev = q
	c := bits.Len32(ormag)
	dst[0] = byte(c)
	if c == 0 {
		return 1, nil
	}
	dst[1] = byte(signW)
	dst[2] = byte(signW >> 8)
	dst[3] = byte(signW >> 16)
	dst[4] = byte(signW >> 24)
	o := 5
	bc, r := c/8, c%8
	o += bitio.PackPlanes(dst[o:], mbuf[:], bc)
	o += bitio.PackRemainder(dst[o:], mbuf[:], 8*bc, r)
	return o, nil
}

// encodeBlockGeneric handles arbitrary block lengths and the first block of
// a chunk (whose leading element is the outlier and encodes a zero delta).
func encodeBlockGeneric(dst []byte, blk []float32, recip float64, qprev *int32,
	first *bool, outlier *int32, pbuf []int32, mbuf []uint32) (int, error) {
	n := len(blk)
	var maxmag uint32
	q := *qprev
	for i := 0; i < n; i++ {
		qi, err := quantise(float64(blk[i]), recip)
		if err != nil {
			return 0, err
		}
		p := qi - q
		q = qi
		if *first {
			*outlier = qi
			p = 0
			*first = false
		}
		pbuf[i] = p
		s := p >> 31
		m := uint32((p ^ s) - s)
		mbuf[i] = m
		if m > maxmag {
			maxmag = m
		}
	}
	*qprev = q
	c := bits.Len32(maxmag)
	dst[0] = byte(c)
	if c == 0 {
		return 1, nil
	}
	o := 1
	o += bitio.PackSigns(dst[o:], pbuf[:n])
	bc, r := c/8, c%8
	o += bitio.PackPlanes(dst[o:], mbuf[:n], bc)
	o += bitio.PackRemainder(dst[o:], mbuf[:n], 8*bc, r)
	return o, nil
}

// decodeBlock32 decodes one full 32-element block directly into
// reconstructed float32 values, carrying the quantized accumulator. With
// sums set it stores sums[i] + v in place of each value v: it decodes into
// a scratch block first, since out may be sums.
func decodeBlock32(src []byte, out, sums []float32, acc *int32, eb2 float64, mscratch *[32]uint32) (int, error) {
	if sums != nil {
		var vals [32]float32
		n, err := decodeBlock32(src, vals[:], nil, acc, eb2, mscratch)
		if err == nil {
			for i, v := range vals {
				out[i] = sums[i] + v
			}
		}
		return n, err
	}
	if len(src) < 1 {
		return 0, ErrCorrupt
	}
	c := int(src[0])
	if c > 32 {
		return 0, fmt.Errorf("%w: code length %d", ErrCorrupt, c)
	}
	out = out[:32]
	if c == 0 {
		v := float32(eb2 * float64(*acc))
		for i := range out {
			out[i] = v
		}
		return 1, nil
	}
	bc, r := c/8, c%8
	need := 5 + 32*bc + 4*r
	if len(src) < need {
		return 0, ErrCorrupt
	}
	signW := uint32(src[1]) | uint32(src[2])<<8 | uint32(src[3])<<16 | uint32(src[4])<<24
	mbuf := mscratch
	if bc == 0 {
		for i := range mbuf {
			mbuf[i] = 0
		}
	}
	o := 5
	o += bitio.UnpackPlanesAssign(src[o:], mbuf[:], bc)
	bitio.UnpackRemainder(src[o:], mbuf[:], 8*bc, r)
	a := *acc
	for i := 0; i < 32; i++ {
		neg := -int32(signW >> uint(i) & 1) // 0 or -1
		d := (int32(mbuf[i]) ^ neg) - neg
		a += d
		out[i] = float32(eb2 * float64(a))
	}
	*acc = a
	return need, nil
}

// DecodeBlock decodes one encoded block from src into the prediction slice
// p (whose length selects the element count) and returns the number of
// bytes consumed. scratch must be at least len(p) long; it is clobbered.
// DecodeBlock is exported for the homomorphic reducer in package hzdyn.
func DecodeBlock(src []byte, p []int32, scratch []uint32) (int, error) {
	n := len(p)
	if len(src) < 1 {
		return 0, ErrCorrupt
	}
	c := int(src[0])
	if c > 32 {
		return 0, fmt.Errorf("%w: code length %d", ErrCorrupt, c)
	}
	if c == 0 {
		for i := range p {
			p[i] = 0
		}
		return 1, nil
	}
	need := 1 + bitio.EncodedBytes(n, c)
	if len(src) < need {
		return 0, ErrCorrupt
	}
	bc, r := c/8, c%8
	if n == 32 {
		signW := uint32(src[1]) | uint32(src[2])<<8 | uint32(src[3])<<16 | uint32(src[4])<<24
		var mbuf [32]uint32
		o := 5
		o += bitio.UnpackPlanes(src[o:], mbuf[:], bc)
		bitio.UnpackRemainder(src[o:], mbuf[:], 8*bc, r)
		for i := 0; i < 32; i++ {
			neg := -int32(signW >> uint(i) & 1)
			p[i] = (int32(mbuf[i]) ^ neg) - neg
		}
		return need, nil
	}
	mags := scratch[:n]
	for i := range mags {
		mags[i] = 0
	}
	o := 1 + bitio.SignBytes(n)
	o += bitio.UnpackPlanes(src[o:], mags, bc)
	bitio.UnpackRemainder(src[o:], mags, 8*bc, r)
	for i := range p {
		p[i] = int32(mags[i])
	}
	bitio.ApplySigns(src[1:], p)
	return need, nil
}

// EncodeBlock encodes the prediction values p as one block (code-length
// byte plus payload) into dst and returns the number of bytes written.
// scratch must be at least len(p) long; it is clobbered. EncodeBlock is
// exported for the homomorphic reducer in package hzdyn.
func EncodeBlock(dst []byte, p []int32, scratch []uint32) int {
	n := len(p)
	if n == 32 {
		var mbuf [32]uint32
		var signW, ormag uint32
		for i := 0; i < 32; i++ {
			v := p[i]
			s := v >> 31
			m := uint32((v ^ s) - s)
			mbuf[i] = m
			signW |= uint32(s) & (1 << uint(i))
			ormag |= m
		}
		c := bits.Len32(ormag)
		dst[0] = byte(c)
		if c == 0 {
			return 1
		}
		dst[1] = byte(signW)
		dst[2] = byte(signW >> 8)
		dst[3] = byte(signW >> 16)
		dst[4] = byte(signW >> 24)
		o := 5
		bc, r := c/8, c%8
		o += bitio.PackPlanes(dst[o:], mbuf[:], bc)
		o += bitio.PackRemainder(dst[o:], mbuf[:], 8*bc, r)
		return o
	}
	mags := scratch[:n]
	var maxmag uint32
	for i, v := range p {
		s := v >> 31
		m := uint32((v ^ s) - s)
		mags[i] = m
		if m > maxmag {
			maxmag = m
		}
	}
	c := bits.Len32(maxmag)
	dst[0] = byte(c)
	if c == 0 {
		return 1
	}
	o := 1
	o += bitio.PackSigns(dst[o:], p)
	bc, r := c/8, c%8
	o += bitio.PackPlanes(dst[o:], mags, bc)
	o += bitio.PackRemainder(dst[o:], mags, 8*bc, r)
	return o
}

// SumBlock is the portable pipeline ④, the reference the SIMD add kernel
// reproduces: it inverse fixed-length decodes the blocks at the heads of a
// and b, adds the prediction integers in int64, and fixed-length encodes
// the sum into dst. len(pa) is the block length; pb and scratch must be at
// least as long. overflow reports a sum that no longer fits in int32 (dst
// is then untouched), err a corrupt operand. dst must have room for the
// block; nothing past wrote is written.
func SumBlock(dst, a, b []byte, pa, pb []int32, scratch []uint32) (wrote, usedA, usedB int, overflow bool, err error) {
	if usedA, err = DecodeBlock(a, pa, scratch); err != nil {
		return 0, 0, 0, false, err
	}
	if usedB, err = DecodeBlock(b, pb[:len(pa)], scratch); err != nil {
		return 0, 0, 0, false, err
	}
	for i := range pa {
		s := int64(pa[i]) + int64(pb[i])
		if s != int64(int32(s)) {
			return 0, usedA, usedB, true, nil
		}
		pa[i] = int32(s)
	}
	return EncodeBlock(dst, pa, scratch), usedA, usedB, false, nil
}

// BlockBytes returns the encoded size of the block starting at src[0] for
// n elements, without decoding its payload.
func BlockBytes(src []byte, n int) (int, error) {
	if len(src) < 1 {
		return 0, ErrCorrupt
	}
	c := int(src[0])
	if c > 32 {
		return 0, fmt.Errorf("%w: code length %d", ErrCorrupt, c)
	}
	size := 1 + bitio.EncodedBytes(n, c)
	if len(src) < size {
		return 0, ErrCorrupt
	}
	return size, nil
}
