package fzlight

// Go side of the block kernels in block_amd64.s: their signatures. The
// wrappers that keep them inside their slices are in block.go; the level
// that selects them is package simd's.

//go:noescape
func encodeRun32K(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)

//go:noescape
func decodeRun32K(out, sums *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)

//go:noescape
func encodeRun32K512(dst *byte, src *float32, dstLen, blocks int, recip float64, qprev int32) (wrote, done int, q int32)

//go:noescape
func decodeRun32K512(out, sums *float32, src *byte, srcLen, blocks int, acc int32, eb2 float64) (used, done int, newAcc int32)

//go:noescape
func sumRun32K(dst, a, b *byte, dstLen, aLen, bLen, pairs int, dynamic bool, tally *[5]int64) (wrote, usedA, usedB, done int)
