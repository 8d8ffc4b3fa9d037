package harness

import (
	"hzccl/internal/core"
	"hzccl/internal/floatbytes"
	"hzccl/internal/fzlight"
	"hzccl/internal/hzdyn"
)

// calibrate measures single-thread component rates on a workload's own
// fields: compression, decompression and MPI's raw sum (floatbytes.AddInto
// of wire bytes into a partial sum, the plain flavor's reduction) on
// fields[0], and homomorphic reduction of C(fields[0]) folded with each
// later field's container in turn, as a ring folds its partial sums. It
// needs at least two fields.
func calibrate(eb float64, fields ...[]float32) (*core.Rates, error) {
	base, folds := fields[0], fields[1:]
	p := fzlight.Params{ErrorBound: eb}
	raw := 4 * len(base)

	c0, err := fzlight.Compress(base, p)
	if err != nil {
		return nil, err
	}
	tCPR, err := bestOf(2, func() error { _, err := fzlight.Compress(base, p); return err })
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(base))
	tDPR, err := bestOf(2, func() error { return fzlight.DecompressInto(c0, out) })
	if err != nil {
		return nil, err
	}
	wire := floatbytes.Wire(base)
	tCPT, err := bestOf(2, func() error { floatbytes.AddInto(out, wire); return nil })
	if err != nil {
		return nil, err
	}

	operands := make([][]byte, len(folds))
	for k, f := range folds {
		if operands[k], err = fzlight.Compress(f, p); err != nil {
			return nil, err
		}
	}
	tHPR, err := bestOf(2, func() error {
		acc := c0
		for _, next := range operands {
			sum, _, err := hzdyn.Add(acc, next)
			if err != nil {
				return err
			}
			acc = sum
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &core.Rates{
		CPR: float64(raw) / tCPR.Seconds(),
		DPR: float64(raw) / tDPR.Seconds(),
		CPT: float64(raw) / tCPT.Seconds(),
		HPR: float64(raw) * float64(len(folds)) / tHPR.Seconds(),
	}, nil
}
