package fzlight

// WithPath lets the external tests of this directory run f on one
// pipeline-④ path: the SIMD kernels where the CPU has them (true) or the
// portable Go body (false).
func WithPath(kernels bool, f func()) { withPath(kernels, f) }
