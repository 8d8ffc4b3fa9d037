// Package simd is the one CPU probe behind the repository's vector
// kernels: it reads CPUID once, and the packages with amd64 kernels —
// fzlight's block codecs, floatbytes' float add, the datasets' sin and
// crc32c's fold — dispatch on the level it finds, so they never disagree
// about what the CPU has.
package simd

// Level names a set of vector instructions the kernels may use.
type Level int

const (
	Portable Level = iota // no kernels: the Go loops
	AVX2                  // AVX2 and BMI2
	AVX512                // the same plus AVX-512 F, DQ, BW and VL
)

func (l Level) String() string { return [...]string{"portable", "AVX2", "AVX-512"}[l] }

// CPU is the highest level this CPU and its OS allow, probed once at init
// (Portable off amd64). Packages copy it into a variable of their own that
// only their tests lower.
var CPU = probe()

// VPCLMULQDQ reports the carry-less multiply on ZMM registers
// (CPUID.7.0:ECX[10]) at level AVX512: what crc32c's folding kernel needs
// on top of the level.
var VPCLMULQDQ = CPU == AVX512 && vpclmulqdq()
