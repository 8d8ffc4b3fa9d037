// Package costmodel prices collectives for AlgoAuto and for the benchmark's
// predicted-vs-measured residual: algo.go replays each fixed schedule's own
// code (core.Price) at calibrated component rates, and this file keeps the
// paper's Section III-C ring equations, pinned to that replay in tests,
// and the calibration (Measure).
package costmodel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hzccl/internal/core"
	"hzccl/internal/fanout"
	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// Rates holds the component throughputs of one node (core.Rates: CPR, DPR,
// CPT, HPR) plus the network parameters. All throughputs are in bytes of
// *raw* (uncompressed) data per second, so t_op(m) = m / rate for a raw
// block of m bytes. Alpha is the whole fixed cost of one message: a caller
// pricing a real transport folds LogP's software overhead o into it.
type Rates struct {
	core.Rates
	Ratio float64 // compression ratio (raw bytes / compressed bytes)
	Alpha float64 // per-message latency, seconds
	Beta  float64 // link bandwidth, bytes/second
}

// Validate reports whether the rates are usable.
func (r Rates) Validate() error {
	for name, v := range map[string]float64{
		"CPR": r.CPR, "DPR": r.DPR, "CPT": r.CPT, "HPR": r.HPR,
		"Ratio": r.Ratio, "Beta": r.Beta,
	} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("costmodel: rate %s must be positive and finite, got %v", name, v)
		}
	}
	if r.Alpha < 0 {
		return errors.New("costmodel: Alpha must be non-negative")
	}
	return nil
}

// Backend selects which collective implementation the prediction models.
type Backend = core.Flavor

// Backends.
const (
	Plain = core.FlavorPlain // original MPI, no compression
	CColl = core.FlavorCColl // DOC workflow
	HZCCL = core.FlavorHZ    // homomorphic co-design
)

// link returns the modeled time to move a raw block of m bytes between two
// neighbours, compressed when the backend compresses.
func (r Rates) link(b Backend, m float64) float64 {
	size := m
	if b != Plain {
		size = m / r.Ratio
	}
	return r.Alpha + size/r.Beta
}

// ReduceScatter predicts the ring reduce-scatter time for total raw data
// of dataBytes spread over n ranks (paper §III-C1):
//
//	Plain:  (N−1)·(link + CPT)
//	C-Coll: (N−1)·(CPR + link + DPR + CPT)
//	hZCCL:  N·CPR + (N−1)·(link + HPR) + 1·DPR
func (r Rates) ReduceScatter(b Backend, n int, dataBytes float64) float64 {
	if n <= 1 {
		return 0
	}
	m := dataBytes / float64(n)
	k := float64(n - 1)
	switch b {
	case Plain:
		return k * (r.link(b, m) + m/r.CPT)
	case CColl:
		return k * (m/r.CPR + r.link(b, m) + m/r.DPR + m/r.CPT)
	case HZCCL:
		return float64(n)*(m/r.CPR) + k*(r.link(b, m)+m/r.HPR) + m/r.DPR
	}
	return math.NaN()
}

// Allgather predicts the ring allgather of per-rank blocks of m raw bytes:
//
//	Plain:  (N−1)·link
//	C-Coll: 1·CPR + (N−1)·(link + DPR)
//	hZCCL (inside Allreduce): (N−1)·link + N·DPR (no compression step)
func (r Rates) Allgather(b Backend, n int, blockBytes float64) float64 {
	if n <= 1 {
		return 0
	}
	k := float64(n - 1)
	switch b {
	case Plain:
		return k * r.link(b, blockBytes)
	case CColl:
		return blockBytes/r.CPR + k*(r.link(b, blockBytes)+blockBytes/r.DPR)
	case HZCCL:
		return k*r.link(b, blockBytes) + float64(n)*(blockBytes/r.DPR)
	}
	return math.NaN()
}

// Allreduce predicts the ring allreduce (reduce-scatter + allgather). For
// hZCCL the reduce-scatter's trailing DPR and the allgather's leading CPR
// are both elided (paper §III-C2):
//
//	hZCCL: N·CPR + (N−1)·(link + HPR) + (N−1)·link + N·DPR
func (r Rates) Allreduce(b Backend, n int, dataBytes float64) float64 {
	if n <= 1 {
		return 0
	}
	m := dataBytes / float64(n)
	k := float64(n - 1)
	switch b {
	case Plain, CColl:
		return r.ReduceScatter(b, n, dataBytes) + r.Allgather(b, n, m)
	case HZCCL:
		return float64(n)*(m/r.CPR) + k*(r.link(b, m)+m/r.HPR) +
			k*r.link(b, m) + float64(n)*(m/r.DPR)
	}
	return math.NaN()
}

// Speedup returns the predicted allreduce speedup of backend b over Plain.
func (r Rates) Speedup(b Backend, n int, dataBytes float64) float64 {
	base := r.Allreduce(Plain, n, dataBytes)
	t := r.Allreduce(b, n, dataBytes)
	if t <= 0 {
		return 0
	}
	return base / t
}

// Measure calibrates component rates by running the real codecs on the
// given sample (representative of the workload) with the given error
// bound. Network parameters are taken from the arguments. The sample
// should be at least a few hundred KB for stable numbers.
//
// The rates are single-thread rates: Measure runs on one core
// (fanout.Inline), however long the sample.
func Measure(sample []float32, eb float64, alpha time.Duration, betaBytes float64) (r Rates, err error) {
	if len(sample) == 0 {
		return Rates{}, errors.New("costmodel: empty calibration sample")
	}
	fanout.Inline(func() { r, err = measure(sample, eb, alpha, betaBytes) })
	return r, err
}

func measure(sample []float32, eb float64, alpha time.Duration, betaBytes float64) (Rates, error) {
	p := fzlight.Params{ErrorBound: eb}
	rawBytes := 4 * len(sample)

	// best is the fastest of three timed passes of f, in seconds per call.
	// A pass repeats f until it covers at least a millisecond: one call
	// can be tens of µs, which one preemption or timer tick would swamp.
	best := func(f func() error) (float64, error) {
		bt := math.Inf(1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			calls, dt := 0, time.Duration(0)
			for ; dt < time.Millisecond; dt = time.Since(t0) {
				if err := f(); err != nil {
					return 0, err
				}
				calls++
			}
			bt = min(bt, dt.Seconds()/float64(calls))
		}
		return bt, nil
	}

	comp, err := fzlight.Compress(sample, p)
	if err != nil {
		return Rates{}, err
	}
	tCPR, err := best(func() error { _, err := fzlight.Compress(sample, p); return err })
	if err != nil {
		return Rates{}, err
	}
	tDPR, err := best(func() error { _, err := fzlight.Decompress(comp); return err })
	if err != nil {
		return Rates{}, err
	}
	// CPT is MPI's reduction itself: the wire bytes of a block added into
	// the partial sum.
	other := make([]float32, len(sample))
	copy(other, sample)
	wire := floatbytes.Wire(sample)
	tCPT, err := best(func() error {
		floatbytes.AddInto(other, wire)
		return nil
	})
	if err != nil {
		return Rates{}, err
	}
	tHPR, err := best(func() error { _, _, err := hzdyn.Add(comp, comp); return err })
	if err != nil {
		return Rates{}, err
	}

	r := Rates{
		Rates: core.Rates{
			CPR: float64(rawBytes) / tCPR,
			DPR: float64(rawBytes) / tDPR,
			CPT: float64(rawBytes) / tCPT,
			HPR: float64(rawBytes) / tHPR,
		},
		Ratio: float64(rawBytes) / float64(len(comp)),
		Alpha: alpha.Seconds(),
		Beta:  betaBytes,
	}
	return r, r.Validate()
}
