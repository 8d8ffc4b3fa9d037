// Package datasets provides seeded synthetic generators standing in for
// the five application datasets of the hZCCL evaluation (Table I):
// RTM Simulation Setting 1 and 2 (proprietary seismic wavefields), NYX
// (cosmology), CESM-ATM (climate) and Hurricane (weather).
//
// The real datasets are either proprietary (RTM) or multi-GB downloads
// (SDRBench); the generators reproduce the statistics the compressor and
// the homomorphic pipeline selector actually react to:
//
//   - the fraction of exactly-zero / locally-constant regions, which
//     drives constant-block (code-length-0) frequency and hence the
//     hZ-dynamic pipeline mix (paper Table V);
//   - the smooth-component spectrum, which sets delta magnitudes and hence
//     code lengths and compression ratio at each error bound;
//   - the noise floor relative to the value range, which determines where
//     in the 1e-1..1e-4 relative-error-bound sweep blocks stop being
//     constant (the ratio ladder of Table III).
//
// Every generator is deterministic in (dataset, field, length).
package datasets

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Meta describes one synthetic application dataset.
type Meta struct {
	Name   string
	Domain string
	// DefaultLen is the per-field element count used by the experiment
	// harness when none is specified (scaled down from the paper's sizes
	// to suit a single machine).
	DefaultLen int
	// Fields is the number of distinct fields the generator can produce.
	Fields int
}

// Catalog lists the five datasets in the paper's Table I order.
var Catalog = []Meta{
	{Name: "SimSet1", Domain: "Seismic Wave", DefaultLen: 1 << 22, Fields: 8},
	{Name: "SimSet2", Domain: "Seismic Wave", DefaultLen: 1 << 22, Fields: 8},
	{Name: "NYX", Domain: "Cosmology", DefaultLen: 1 << 22, Fields: 6},
	{Name: "CESM-ATM", Domain: "Climate Simu.", DefaultLen: 1 << 22, Fields: 8},
	{Name: "Hurricane", Domain: "Weather Simu.", DefaultLen: 1 << 22, Fields: 8},
}

// Names returns the dataset names in catalog order.
func Names() []string {
	out := make([]string, len(Catalog))
	for i, m := range Catalog {
		out[i] = m.Name
	}
	return out
}

// Lookup returns the Meta for a dataset name.
func Lookup(name string) (Meta, error) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, nil
		}
	}
	return Meta{}, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
}

// Field generates field f of the named dataset with n elements.
func Field(name string, f, n int) ([]float32, error) {
	if n < 0 {
		return nil, fmt.Errorf("datasets: negative length %d", n)
	}
	out := make([]float32, n)
	if err := FieldInto(out, name, f); err != nil {
		return nil, err
	}
	return out, nil
}

// FieldInto generates field f of the named dataset with len(dst) elements
// into dst, writing every element whatever dst held: the bits are Field's,
// so dst may be recycled memory.
func FieldInto(dst []float32, name string, f int) error {
	switch name {
	case "SimSet1":
		simSet1(dst, f)
	case "SimSet2":
		simSet2(dst, f)
	case "NYX":
		nyx(dst, f)
	case "CESM-ATM":
		cesmATM(dst, f)
	case "Hurricane":
		hurricane(dst, f)
	default:
		return fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
	return nil
}

// Pair returns the two fields the Table V experiment reduces
// homomorphically for the named dataset. The pairs are chosen to exercise
// the same pipeline mixes the paper reports: NYX → almost all ①,
// Hurricane → almost all ③, CESM-ATM → almost all ④, the RTM settings →
// mixtures.
func Pair(name string, n int) (a, b []float32, err error) {
	a, err = Field(name, 0, n)
	if err != nil {
		return nil, nil, err
	}
	b, err = Field(name, 1, n)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

func rng(name string, field int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, field)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// simSet1 models an early reverse-time-migration snapshot: the wavefront
// has only traversed part of the volume, so roughly half the samples are
// exactly zero and the rest hold a high-amplitude oscillatory packet.
// Odd-numbered fields model the very first timesteps, whose residual
// energy sits below typical error bounds (they quantize to constant
// streams — the source of Sim-1's pipeline-①/③ split in Table V).
func simSet1(out []float32, field int) {
	r, n := rng("SimSet1", field), len(out)
	if n == 0 {
		return
	}
	if field%2 == 1 {
		// Near-silent snapshot: tiny residue, far below eb at any REL.
		for i := range out {
			out[i] = float32(r.NormFloat64() * 1e-7)
		}
		return
	}
	// Wave packet covering ~46% of the domain.
	start := int(float64(n) * (0.10 + 0.05*r.Float64()))
	width := int(float64(n) * 0.46)
	if start+width > n {
		width = n - start
	}
	carrier := 2 * math.Pi / (160 + 40*r.Float64()) // wavelength ≈ 160-200 samples
	phase := r.Float64() * 2 * math.Pi
	noise := newAR1(r, 0.95, 3.0)
	clear(out[:start])
	var env, wave [sinRun]float64
	for lo := 0; lo < width; lo += sinRun {
		seg := out[start+lo : start+min(lo+sinRun, width)]
		for k := range seg {
			t := float64(lo + k)
			env[k] = math.Pi * t / float64(width) // smooth envelope
			wave[k] = carrier*t + phase
		}
		sinInPlace(env[:len(seg)])
		sinInPlace(wave[:len(seg)])
		for k := range seg {
			seg[k] = float32(env[k] * (1000*wave[k] + noise.next()))
		}
	}
	clear(out[start+width:])
}

// simSet2 models a late RTM snapshot: the wavefield fills the volume and
// is dominated by long-wavelength oscillations, giving very high
// compression ratios that persist even at tight bounds (Table III's
// 126→57 ladder). A field-dependent 15% of the domain carries a
// higher-frequency reflection overlay.
func simSet2(out []float32, field int) {
	r, n := rng("SimSet2", field), len(out)
	if n == 0 {
		return
	}
	// Long-wavelength swells: wavelengths are fractions of the domain so a
	// 32-sample block sees far less than one quantization step at REL
	// 1e-3, keeping ~85% of blocks constant (paper Table V).
	const waves = 5
	freqs := make([]float64, waves)
	phases := make([]float64, waves)
	amps := make([]float64, waves)
	for w := range freqs {
		freqs[w] = 2 * math.Pi / (float64(n) * (0.5 + 0.7*r.Float64()))
		phases[w] = r.Float64() * 2 * math.Pi
		amps[w] = 40 + 30*r.Float64()
	}
	// A reflection overlay with sample-scale detail: even fields carry a
	// narrow one (→ pipeline ③ share), odd fields a wider one (→ the
	// pipeline ② share when reduced as the right operand).
	overlayFrac := 0.02
	if field%2 == 1 {
		overlayFrac = 0.11
	}
	busyStart := int(float64(n) * (0.1 + 0.6*r.Float64()))
	busyEnd := busyStart + int(float64(n)*overlayFrac)
	if busyEnd > n {
		busyEnd = n
	}
	fine := 2 * math.Pi / 90
	var swell [waves][sinRun]float64
	var overlay [sinRun]float64
	for lo := 0; lo < n; lo += sinRun {
		seg := out[lo:min(lo+sinRun, n)]
		for w := range swell {
			s := swell[w][:len(seg)]
			for k := range s {
				s[k] = freqs[w]*float64(lo+k) + phases[w]
			}
			sinInPlace(s)
		}
		b0, b1 := max(busyStart, lo)-lo, min(busyEnd, lo+len(seg))-lo
		if b0 < b1 {
			for k := b0; k < b1; k++ {
				overlay[k] = fine * float64(lo+k)
			}
			sinInPlace(overlay[b0:b1])
		}
		for k := range seg {
			v := 0.0
			for w := range swell {
				v += amps[w] * swell[w][k]
			}
			if k >= b0 && k < b1 {
				v += 25 * overlay[k]
			}
			seg[k] = float32(v)
		}
	}
}

// nyx models a baryon-density field: the exponential of a smooth Gaussian
// process. The range is set by a handful of sharp halos, so at any
// relative bound the absolute bound is enormous compared to the low
// densities filling most of the volume — which is why almost every block
// pair lands in pipeline ① (paper: 99.36%).
func nyx(out []float32, field int) {
	r, n := rng("NYX", field), len(out)
	if n == 0 {
		return
	}
	g := newAR1(r, 0.999, 0.08)
	for i := range out {
		out[i] = float32(math.Exp(3.2*g.next()) - 1)
	}
	// A few sharp halos dominate the range.
	for h := 0; h < 1+n/(1<<18); h++ {
		c := r.Intn(n)
		peak := 1e5 * (0.5 + r.Float64())
		for d := -40; d <= 40; d++ {
			i := c + d
			if i < 0 || i >= n {
				continue
			}
			out[i] += float32(peak * math.Exp(-float64(d*d)/200))
		}
	}
}

// cesmATM models an atmosphere variable: strong latitudinal banding plus
// grid-scale variability at ~0.4% of the range. At REL 1e-3 the
// variability sits several quantization steps above the bound, so nearly
// every block is non-constant and reductions go through pipeline ④
// (paper: 88.64%).
func cesmATM(out []float32, field int) {
	r, n := rng("CESM-ATM", field), len(out)
	if n == 0 {
		return
	}
	band := 2 * math.Pi / (float64(n)/24 + 1)
	phase := r.Float64() * 2 * math.Pi
	noise := newAR1(r, 0.3, 0.55)
	// Polar caps: ~6% of the domain is flat (sea-ice mask), providing the
	// small pipeline-①/②/③ remainder.
	capLen := n * 3 / 100
	for i := range capLen {
		out[i], out[n-1-i] = 200, 200
	}
	body := out[capLen : n-capLen]
	var s [sinRun]float64
	for lo := 0; lo < len(body); lo += sinRun {
		seg := body[lo:min(lo+sinRun, len(body))]
		for k := range seg {
			s[k] = band*float64(capLen+lo+k) + phase
		}
		sinInPlace(s[:len(seg)])
		for k := range seg {
			seg[k] = float32(120*s[k] + 160 + noise.next())
		}
	}
}

// hurricane models paired weather fields: even fields are
// turbulence-dominated (wind speed around the eyewall, fine structure
// everywhere), odd fields are synoptic-scale smooth (pressure). Reducing
// field 0 with field 1 therefore sends nearly every block through
// pipeline ③ — the left operand stays encoded, the right is constant
// (paper: 99.25%).
func hurricane(out []float32, field int) {
	r, n := rng("Hurricane", field), len(out)
	if n == 0 {
		return
	}
	if field%2 == 1 {
		// Pressure-anomaly field: fluctuations orders of magnitude below
		// the wind field's quantization step, centered on zero so every
		// value quantizes to the same integer (no cell-boundary flicker).
		g := newAR1(r, 0.99, 0.001)
		for i := range out {
			out[i] = float32(0.01 * g.next())
		}
		return
	}
	eye := float64(n) * (0.4 + 0.2*r.Float64())
	noise := newAR1(r, 0.6, 0.9)
	var s [sinRun]float64
	for lo := 0; lo < n; lo += sinRun {
		seg := out[lo:min(lo+sinRun, n)]
		for k := range seg {
			s[k] = 2 * math.Pi * float64(lo+k) / float64(n) * 6
		}
		sinInPlace(s[:len(seg)])
		for k := range seg {
			d := math.Abs(float64(lo+k)-eye) / float64(n)
			swirl := 70 * math.Exp(-d*18) // vortex profile
			seg[k] = float32(swirl + 12*s[k] + noise.next())
		}
	}
}

// ar1 is a first-order autoregressive process: x' = a·x + σ·ξ.
type ar1 struct {
	r     *rand.Rand
	a, sd float64
	x     float64
}

func newAR1(r *rand.Rand, a, sd float64) *ar1 { return &ar1{r: r, a: a, sd: sd} }

func (p *ar1) next() float64 {
	p.x = p.a*p.x + p.sd*p.r.NormFloat64()
	return p.x
}

// Quantiles returns the q-quantiles of data (sorted copies; used by tests
// and the dataset summary tool).
func Quantiles(data []float32, qs ...float64) []float64 {
	if len(data) == 0 {
		return make([]float64, len(qs))
	}
	sorted := make([]float64, len(data))
	for i, v := range data {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}
