package hzdyn

// WithPath lets the external tests of this directory run f on one
// pipeline-④ path: as dispatched (true) or portable (false).
func WithPath(kernels bool, f func()) { withPath(kernels, f) }
