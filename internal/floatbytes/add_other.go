//go:build !amd64

package floatbytes

// No add kernel on this architecture: AddInto's word-wise loop adds every
// float.
func addVector([]float32, []byte) int { return 0 }
