package hzdyn

import (
	"math/rand"
	"testing"

	"hzccl/internal/fzlight"
)

// Homomorphic reduction runs on buffers received from the network, so it
// must reject corruption gracefully: errors, never panics.

func TestAddRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, 800)
	for i := range data {
		data[i] = rng.Float32()
	}
	good, err := fzlight.Compress(data, fzlight.Params{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 1000; trial++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		_, _, _ = Add(good, buf)
		_, _, _ = Add(buf, good)
	}
}

func TestAddCorruptedPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = rng.Float32() * 10
	}
	p := fzlight.Params{ErrorBound: 1e-3, Threads: 2}
	a, err := fzlight.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 1500; trial++ {
		bad := append([]byte(nil), a...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			pos := 40 + rng.Intn(len(bad)-40)
			bad[pos] ^= byte(1 + rng.Intn(255))
		}
		// must not panic regardless of which operand is corrupt
		_, _, _ = Add(a, bad)
		_, _, _ = Add(bad, a)
	}
}
