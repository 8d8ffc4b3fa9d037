package fzlight

import "hzccl/internal/simd"

// Dispatched is the kernel level the suite is running at, for the external
// tests of this directory.
func Dispatched() simd.Level { return level }

// WithPath lets the external tests of this directory run f at kernel
// level l, or at the CPU's highest if that is lower.
func WithPath(l simd.Level, f func()) { withPath(l, f) }
