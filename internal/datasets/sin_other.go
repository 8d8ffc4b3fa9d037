//go:build !amd64

package datasets

// No sin kernel on this architecture: math.Sin takes every value.
func sinVector([]float64) int { return 0 }
