package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// refPack32 encodes 32 magnitudes with code length c through the byte-wise
// reference routines.
func refPack32(mags *[32]uint32, c int) []byte {
	bc, r := c/8, c%8
	dst := make([]byte, 32*bc+4*r)
	o := PackPlanes(dst, mags[:], bc)
	PackRemainder(dst[o:], mags[:], 8*bc, r)
	return dst
}

// refUnpack32 decodes a payload with code length c through the byte-wise
// reference routines.
func refUnpack32(p []byte, c int) (mags [32]uint32) {
	bc, r := c/8, c%8
	o := UnpackPlanesAssign(p, mags[:], bc)
	UnpackRemainder(p[o:], mags[:], 8*bc, r)
	return mags
}

func randBlock32(rng *rand.Rand, c int) (mags [32]uint32, signW uint32) {
	for i := range mags {
		mags[i] = rng.Uint32() & (uint32(1)<<uint(c) - 1)
	}
	// Force at least one magnitude to use the full width so c is tight.
	mags[rng.Intn(32)] |= uint32(1) << uint(c-1)
	return mags, rng.Uint32()
}

// TestUnpackDeltas32 checks every code length 1..30 against the reference
// decode.
func TestUnpackDeltas32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 1; c <= 30; c++ {
		for trial := 0; trial < 16; trial++ {
			mags, signW := randBlock32(rng, c)
			payload := refPack32(&mags, c)
			want := [32]int32{}
			for i := range want {
				neg := -int32(signW >> uint(i) & 1)
				want[i] = (int32(mags[i]) ^ neg) - neg
			}
			var d [32]int32
			UnpackDeltas32(payload, signW, c, &d)
			if d != want {
				t.Fatalf("c=%d trial=%d: deltas mismatch\n got %v\nwant %v", c, trial, d, want)
			}
		}
	}
}

// TestUnpackAddMags32 checks decode-add-reencode against a scalar
// reference for every code length 0..30.
func TestUnpackAddMags32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for c := 0; c <= 30; c++ {
		for trial := 0; trial < 16; trial++ {
			var d [32]int32
			for i := range d {
				d[i] = rng.Int31n(1<<30) - 1<<29
			}
			var payload []byte
			var mags [32]uint32
			var signW uint32
			if c > 0 {
				mags, signW = randBlock32(rng, c)
				payload = refPack32(&mags, c)
			}
			var wantMags [32]uint32
			var wantSign, wantOr uint32
			for i := 0; i < 32; i++ {
				neg := -int32(signW >> uint(i) & 1)
				db := (int32(mags[i]) ^ neg) - neg
				s := d[i] + db
				ss := s >> 31
				u := uint32((s ^ ss) - ss)
				wantMags[i] = u
				wantSign |= uint32(ss&1) << uint(i)
				wantOr |= u
			}
			dd := d
			var got [32]uint32
			osign, ormag := UnpackAddMags32(payload, signW, c, &dd, &got)
			if got != wantMags || osign != wantSign || ormag != wantOr || dd != d {
				t.Fatalf("c=%d trial=%d: mismatch sign %08x/%08x or %08x/%08x",
					c, trial, osign, wantSign, ormag, wantOr)
			}
		}
	}
}

// TestPackMags32 checks the packed output is byte-identical to the
// reference encoder for every code length 1..32, and that nothing past it
// is written.
func TestPackMags32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c := 1; c <= 32; c++ {
		for trial := 0; trial < 16; trial++ {
			mags, _ := randBlock32(rng, c)
			want := refPack32(&mags, c)
			need := len(want)

			exact := make([]byte, need)
			if n := PackMags32(exact, &mags, c); n != need {
				t.Fatalf("c=%d: wrote %d, want %d", c, n, need)
			}
			if !bytes.Equal(exact, want) {
				t.Fatalf("c=%d trial=%d exact: payload mismatch", c, trial)
			}

			slack := bytes.Repeat([]byte{0xEE}, need+8)
			PackMags32(slack, &mags, c)
			if !bytes.Equal(slack[:need], want) || !bytes.Equal(slack[need:], bytes.Repeat([]byte{0xEE}, 8)) {
				t.Fatalf("c=%d trial=%d slack: payload mismatch or bytes written past it", c, trial)
			}
		}
	}
}

// TestFusedRoundTrip32 drives pack -> unpack-deltas -> add-zero reencode
// and checks the loop closes.
func TestFusedRoundTrip32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for c := 1; c <= 30; c++ {
		mags, signW := randBlock32(rng, c)
		payload := make([]byte, 32*(c/8)+4*(c%8))
		PackMags32(payload, &mags, c)
		var d [32]int32
		UnpackDeltas32(payload, signW, c, &d)
		var got [32]uint32
		osign, ormag := UnpackAddMags32(nil, 0, 0, &d, &got)
		if got != mags {
			t.Fatalf("c=%d: magnitudes did not round-trip", c)
		}
		var wantSign uint32
		for i, m := range mags {
			if m != 0 && signW&(1<<uint(i)) != 0 {
				wantSign |= 1 << uint(i)
			}
		}
		if osign != wantSign {
			t.Fatalf("c=%d: sign word %08x, want %08x", c, osign, wantSign)
		}
		_ = ormag
	}
}

// TestAddBlocks32Narrow checks the whole-block add against a scalar
// reference for every (ca, cb) pair ≤ 6, including the constant-operand
// entries and the non-canonical negative-zero encoding.
func TestAddBlocks32Narrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for ca := 0; ca <= 6; ca++ {
		for cb := 0; cb <= 6; cb++ {
			for trial := 0; trial < 32; trial++ {
				var magsA, magsB [32]uint32
				var swa, swb uint32
				var pa, pb []byte
				if ca > 0 {
					magsA, swa = randBlock32(rng, ca)
					if trial == 0 {
						magsA[7] = 0 // negative-zero lane if sign bit 7 set
					}
					pa = refPack32(&magsA, ca)
				}
				if cb > 0 {
					magsB, swb = randBlock32(rng, cb)
					pb = refPack32(&magsB, cb)
				}
				// Scalar reference.
				var sums [32]int32
				var wantSign, wantOr uint32
				var wantMags [32]uint32
				for i := 0; i < 32; i++ {
					na := -int32(swa >> uint(i) & 1)
					nb := -int32(swb >> uint(i) & 1)
					s := ((int32(magsA[i]) ^ na) - na) + ((int32(magsB[i]) ^ nb) - nb)
					sums[i] = s
					ss := s >> 31
					u := uint32((s ^ ss) - ss)
					wantMags[i] = u
					wantSign |= uint32(ss&1) << uint(i)
					wantOr |= u
				}
				wc := 0
				for wantOr>>uint(wc) != 0 {
					wc++
				}
				var want []byte
				if wc == 0 {
					want = []byte{0}
				} else {
					want = append([]byte{byte(wc), byte(wantSign), byte(wantSign >> 8),
						byte(wantSign >> 16), byte(wantSign >> 24)}, refPack32(&wantMags, wc)...)
				}
				dst := make([]byte, len(want))
				if n := AddBlocks32Narrow(dst, pa, pb, swa, swb, ca, cb); n != len(want) || !bytes.Equal(dst, want) {
					t.Fatalf("ca=%d cb=%d trial=%d: output mismatch (n=%d want %d)\n got % x\nwant % x",
						ca, cb, trial, n, len(want), dst, want)
				}
			}
		}
	}
}
