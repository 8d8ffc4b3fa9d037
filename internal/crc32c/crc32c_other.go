//go:build !amd64

package crc32c

// No folding kernel on this architecture: hash/crc32 sums every byte.
func updateVector(crc uint32, _ []byte) (uint32, int) { return crc, 0 }
