// Package simdtest runs a package's test suite once per SIMD level, for the
// TestMain of the packages that dispatch on package simd.
package simdtest

import (
	"flag"
	"fmt"
	"testing"

	"hzccl/internal/simd"
)

// Main runs m once at each of levels the CPU has, setting *level before
// each pass, and returns the exit code of the first pass that fails.
// levels are the ones the package tells apart, highest first. Benchmarks,
// fuzzing sessions and -list run once, at the level *level holds.
func Main(m *testing.M, pkg string, level *simd.Level, levels ...simd.Level) int {
	if set("test.bench") || set("test.fuzz") || set("test.fuzzworker") || set("test.list") {
		return m.Run()
	}
	passed := simd.Level(-1)
	for _, l := range levels {
		if l > simd.CPU {
			continue
		}
		if passed >= 0 {
			fmt.Printf("%s: the suite passed at level %v; running it again at %v\n", pkg, passed, l)
		}
		*level = l
		if code := m.Run(); code != 0 {
			return code
		}
		passed = l
	}
	return 0
}

func set(name string) bool {
	f := flag.Lookup(name)
	return f != nil && f.Value.String() != "" && f.Value.String() != "false"
}
