//go:build !amd64

package simd

func probe() Level { return Portable }

func vpclmulqdq() bool { return false }
