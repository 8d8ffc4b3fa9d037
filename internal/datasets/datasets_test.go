package datasets

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
	"hzccl/internal/metrics"
)

const testLen = 1 << 18

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, err := Field(name, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Field(name, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", name, i)
			}
		}
		c, err := Field(name, 1, 10000)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: fields 0 and 1 are identical", name)
		}
	}
}

// FieldInto writes every element of its destination: generated into a
// buffer full of NaNs it gives Field's bits, for every dataset, fields 0–3
// and lengths around the block and packet edges. The checksums pin those
// bits at 64 Ki elements, so a generator change cannot pass by moving Field
// and FieldInto together.
func TestFieldIntoOverwritesRecycledMemory(t *testing.T) {
	golden := map[string][4]uint32{
		"SimSet1":   {0x1cca7ea9, 0x5b820d5e, 0x80d37838, 0x7ece4c43},
		"SimSet2":   {0x170f3e98, 0x7cee77fb, 0x835adc3f, 0x85c0ae78},
		"NYX":       {0x7480cfd3, 0xd5408949, 0x7391aabc, 0x4f4e0bd9},
		"CESM-ATM":  {0x33869c25, 0x4a297e01, 0xf0fc260b, 0x37f5f57c},
		"Hurricane": {0x5858ed02, 0x8d4c16f2, 0x55f7616f, 0xf0be426d},
	}
	for _, name := range Names() {
		for f := 0; f < 4; f++ {
			for _, n := range []int{0, 1, 31, 1000, 1 << 16} {
				want, err := Field(name, f, n)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float32, n)
				for i := range got {
					got[i] = math.Float32frombits(0x7fc00000 | uint32(i))
				}
				if err := FieldInto(got, name, f); err != nil {
					t.Fatal(err)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("%s field %d n %d: FieldInto element %d is %#x, Field's %#x", name, f, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				if n == 1<<16 {
					if sum := floatbytes.Checksum(want); sum != golden[name][f] {
						t.Errorf("%s field %d: checksum %08x, want %08x", name, f, sum, golden[name][f])
					}
				}
			}
		}
	}
	if err := FieldInto(make([]float32, 4), "nope", 0); err == nil {
		t.Error("FieldInto accepted an unknown dataset")
	}
}

// Every generator's bits around the edges of its sin runs (sinRun = 512),
// fields 0–9: one CRC per dataset over the field checksums, taken from the
// generators as they were before they gathered their sin arguments into
// runs, when each called math.Sin per element.
func TestFieldDigestsAcrossRuns(t *testing.T) {
	want := map[string]uint32{
		"SimSet1":   0xafb37ae1,
		"SimSet2":   0x6770bd73,
		"NYX":       0x3af62cc2,
		"CESM-ATM":  0x63d736c5,
		"Hurricane": 0x6edf303c,
	}
	for _, name := range Names() {
		var sums []byte
		for f := 0; f < 10; f++ {
			for _, n := range []int{1, 7, 513, 1000, 16 << 10} {
				d, err := Field(name, f, n)
				if err != nil {
					t.Fatal(err)
				}
				sums = binary.LittleEndian.AppendUint32(sums, floatbytes.Checksum(d))
			}
		}
		if got := crc32.ChecksumIEEE(sums); got != want[name] {
			t.Errorf("%s: digest %#08x, want %#08x", name, got, want[name])
		}
	}
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestUnknownDataset(t *testing.T) {
	if _, err := Field("nope", 0, 10); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown lookup accepted")
	}
	if _, err := Field("NYX", 0, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestCatalogComplete(t *testing.T) {
	if len(Catalog) != 5 {
		t.Fatalf("want 5 datasets, got %d", len(Catalog))
	}
	for _, m := range Catalog {
		data, err := Field(m.Name, 0, 1024)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(data) != 1024 {
			t.Fatalf("%s: wrong length", m.Name)
		}
		if _, err := Field(m.Name, 0, 0); err != nil {
			t.Fatalf("%s: zero length: %v", m.Name, err)
		}
	}
}

// The generators must reproduce the pipeline-selection profile of the
// paper's Table V (REL 1e-3): NYX nearly all ①, Hurricane nearly all ③,
// CESM-ATM dominated by ④, the RTM settings mixtures of ① with ②/③.
func TestTableVPipelineProfiles(t *testing.T) {
	profile := func(name string) hzdyn.Stats {
		t.Helper()
		a, b, err := Pair(name, testLen)
		if err != nil {
			t.Fatal(err)
		}
		// Shared absolute bound from the pair's combined range, REL 1e-3.
		eb := metrics.AbsBound(1e-3, a)
		if eb2 := metrics.AbsBound(1e-3, b); eb2 > eb {
			eb = eb2
		}
		p := fzlight.Params{ErrorBound: eb}
		ca, err := fzlight.Compress(a, p)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := fzlight.Compress(b, p)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := hzdyn.Add(ca, cb)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := profile("NYX")
	if f := st.Fraction(hzdyn.PipelineBothConstant); f < 0.90 {
		t.Errorf("NYX: pipeline1 fraction %.3f, want > 0.90 (paper 0.9936)", f)
	}

	st = profile("Hurricane")
	if f := st.Fraction(hzdyn.PipelineRightConstant); f < 0.90 {
		t.Errorf("Hurricane: pipeline3 fraction %.3f, want > 0.90 (paper 0.9925)", f)
	}

	st = profile("CESM-ATM")
	if f := st.Fraction(hzdyn.PipelineBothEncoded); f < 0.60 {
		t.Errorf("CESM-ATM: pipeline4 fraction %.3f, want > 0.60 (paper 0.8864)", f)
	}

	st = profile("SimSet1")
	p1 := st.Fraction(hzdyn.PipelineBothConstant)
	p3 := st.Fraction(hzdyn.PipelineRightConstant)
	if p1+p3 < 0.9 || p1 < 0.25 || p3 < 0.25 {
		t.Errorf("SimSet1: p1=%.3f p3=%.3f, want a ①/③ mixture (paper 0.54/0.46)", p1, p3)
	}

	st = profile("SimSet2")
	if f := st.Fraction(hzdyn.PipelineBothConstant); f < 0.5 {
		t.Errorf("SimSet2: pipeline1 fraction %.3f, want > 0.5 (paper 0.8446)", f)
	}
	if f := st.Fraction(hzdyn.PipelineBothConstant); f > 0.995 {
		t.Errorf("SimSet2: pipeline1 fraction %.3f, want a visible non-① share", f)
	}
}

// The compression-ratio ladder must fall as the bound tightens and stay in
// a plausible band at both ends (Table III shape).
func TestRatioLadder(t *testing.T) {
	for _, name := range Names() {
		data, err := Field(name, 0, testLen)
		if err != nil {
			t.Fatal(err)
		}
		var prev float64 = 1e18
		for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			eb := metrics.AbsBound(rel, data)
			comp, err := fzlight.Compress(data, fzlight.Params{ErrorBound: eb})
			if err != nil {
				t.Fatalf("%s rel=%g: %v", name, rel, err)
			}
			ratio := metrics.Ratio(4*len(data), len(comp))
			if ratio > prev*1.05 {
				t.Errorf("%s: ratio increased when bound tightened (rel=%g: %.1f after %.1f)", name, rel, ratio, prev)
			}
			prev = ratio
			if rel == 1e-1 && ratio < 20 {
				t.Errorf("%s: ratio %.1f at REL 1e-1, want > 20", name, ratio)
			}
			if rel == 1e-4 && (ratio < 2 || ratio > 130) {
				t.Errorf("%s: ratio %.1f at REL 1e-4, want within [2,130]", name, ratio)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	data := []float32{5, 1, 4, 2, 3}
	q := Quantiles(data, 0, 0.5, 1)
	if q[0] != 1 || q[1] != 3 || q[2] != 5 {
		t.Fatalf("got %v", q)
	}
	q = Quantiles(nil, 0.5)
	if q[0] != 0 {
		t.Fatalf("empty quantiles: %v", q)
	}
}

func TestDimensionalFields(t *testing.T) {
	f2, err := Field2D("CESM-ATM", 0, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 32*64 {
		t.Fatalf("2D length %d", len(f2))
	}
	// adjacent rows must be strongly correlated (that's the point)
	var diff, mag float64
	for j := 0; j < 64; j++ {
		diff += math.Abs(float64(f2[64+j] - f2[j]))
		mag += math.Abs(float64(f2[j]))
	}
	if diff > 0.2*mag+1 {
		t.Fatalf("rows not correlated: diff %g mag %g", diff, mag)
	}
	f3, err := Field3D("NYX", 0, 4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 4*16*16 {
		t.Fatalf("3D length %d", len(f3))
	}
	// determinism
	g3, err := Field3D("NYX", 0, 4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f3 {
		if f3[i] != g3[i] {
			t.Fatal("3D field not deterministic")
		}
	}
	if _, err := Field2D("nope", 0, 4, 4); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Field3D("NYX", 0, -1, 4, 4); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := Field2D("NYX", 0, -1, 4); err == nil {
		t.Fatal("negative height accepted")
	}
}

// BenchmarkFieldInto reports generation throughput per dataset at 1 Mi
// elements, at the CPU's level: the job input serve.Run generates.
func BenchmarkFieldInto(b *testing.B) {
	dst := make([]float32, 1<<20)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(dst)))
			for i := 0; i < b.N; i++ {
				if err := FieldInto(dst, name, i%4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
