package fzlight

// Level is a kernel level, for the external tests of this directory:
// Portable, or the level the suite is running at (Dispatched).
type Level = kernelLevel

const Portable = levelPortable

func Dispatched() Level { return level }

// WithPath lets the external tests of this directory run f at kernel
// level l, or at the CPU's highest if that is lower.
func WithPath(l Level, f func()) { withPath(l, f) }
