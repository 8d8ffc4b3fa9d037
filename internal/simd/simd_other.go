//go:build !amd64

package simd

func probe() Level { return Portable }
