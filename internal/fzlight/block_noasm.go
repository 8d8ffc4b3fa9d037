//go:build !amd64

package fzlight

// No block kernels on this architecture: useKernels is false, so the
// portable codecs in block.go are the only path and nothing calls these.

func haveKernels() bool { return false }

func encodeRun32K(*byte, *float32, int, int, float64, int32) (int, int, int32) { panic("no kernels") }
func decodeRun32K(*float32, *byte, int, int, int32, float64) (int, int, int32) { panic("no kernels") }
func sumRun32K(*byte, *byte, *byte, int, int, int, int, bool, *[5]int64) (int, int, int, int) {
	panic("no kernels")
}
