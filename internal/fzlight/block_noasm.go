//go:build !amd64

package fzlight

// No block kernels on this architecture: the portable codecs in block.go
// are the only path.

func haveKernels() bool { return false }

func encodeBlock32Fast(dst []byte, blk []float32, recip float64, qprev int32) (int, int32, bool) {
	return 0, 0, false
}

func decodeBlock32Fast(src []byte, out []float32, acc int32, eb2 float64) (int, int32, bool) {
	return 0, acc, false
}

func sumBlocks32Fast(dst, a, b []byte, pairs int) (int, int, int, int) { return 0, 0, 0, 0 }
