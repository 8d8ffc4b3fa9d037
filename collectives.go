package hzccl

import (
	"errors"
	"fmt"
	"math"

	"hzccl/internal/core"
)

// ErrBadErrorBound is returned by every collective when a compressed
// backend (BackendCColl, BackendHZCCL) is selected without a usable
// CollectiveOptions.ErrorBound. It wraps the op name and backend so the
// failure reads as an API-usage error at the call site rather than a
// compressor internal surfacing from deep inside a ring round.
var ErrBadErrorBound = errors.New("hzccl: compressed backend requires CollectiveOptions.ErrorBound > 0")

// ErrBadAlgorithm is returned by every collective when
// CollectiveOptions.Algorithm is not one of the defined algorithms. Like
// ErrBadErrorBound it is a non-degradable API-usage error: silently
// falling back to the ring would hide the misconfiguration, and a
// DegradePolicy must abort rather than descend its ladder on it.
var ErrBadAlgorithm = errors.New("hzccl: unknown CollectiveOptions.Algorithm")

// validateOptions rejects option combinations that would otherwise fail
// deep inside the compressor with no indication of which collective or
// backend was misconfigured.
func validateOptions(op string, b Backend, opt CollectiveOptions) error {
	if !opt.Algorithm.Valid() {
		return fmt.Errorf("%w: %s with backend %s got Algorithm(%d)", ErrBadAlgorithm, op, b, int(opt.Algorithm))
	}
	if b == BackendMPI {
		return nil // no compression, no bound needed
	}
	if eb := opt.ErrorBound; eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return fmt.Errorf("%w: %s with backend %s got ErrorBound %v", ErrBadErrorBound, op, b, opt.ErrorBound)
	}
	return nil
}

// This file exposes the extended collective family. BackendCColl and
// BackendHZCCL behave identically for pure data-movement collectives
// (Broadcast, Gather, Allgather, Alltoall): both compress once at each
// source and decompress once at each sink. They differ on computation
// collectives, where BackendHZCCL combines partial results homomorphically
// in compressed form while BackendCColl decompresses, operates and
// recompresses at every hop.

// Broadcast distributes root's data to every rank and returns each rank's
// copy. All ranks must pass a buffer of the same length (non-root contents
// are ignored).
func (r *Rank) Broadcast(data []float32, root int, b Backend, opt CollectiveOptions) ([]float32, error) {
	if err := validateOptions("broadcast", b, opt); err != nil {
		return nil, err
	}
	r.r.BeginOp("broadcast")
	return core.New(opt.core()).Broadcast(r.r, b, data, root)
}

// Reduce sums data element-wise across ranks at root. Only the root
// receives a non-nil result.
func (r *Rank) Reduce(data []float32, root int, b Backend, opt CollectiveOptions) ([]float32, error) {
	if err := validateOptions("reduce", b, opt); err != nil {
		return nil, err
	}
	if opt.Degrade != nil {
		return r.runDegradable(b, opt, "reduce", func(eff Backend) ([]float32, error) {
			o := opt
			o.Degrade = nil
			return r.Reduce(data, root, eff, o)
		})
	}
	r.r.BeginOp("reduce")
	out, _, err := core.New(opt.core()).Reduce(r.r, b, data, root)
	return out, err
}

// Gather collects every rank's data at root, indexed by origin rank. Only
// the root receives a non-nil result.
func (r *Rank) Gather(data []float32, root int, b Backend, opt CollectiveOptions) ([][]float32, error) {
	if err := validateOptions("gather", b, opt); err != nil {
		return nil, err
	}
	r.r.BeginOp("gather")
	return core.New(opt.core()).Gather(r.r, b, data, root)
}

// Allgather gives every rank every rank's data, indexed by origin rank.
func (r *Rank) Allgather(data []float32, b Backend, opt CollectiveOptions) ([][]float32, error) {
	if err := validateOptions("allgather", b, opt); err != nil {
		return nil, err
	}
	r.r.BeginOp("allgather")
	return core.New(opt.core()).Allgather(r.r, b, data)
}

// Alltoall performs the personalized exchange: block j of this rank's data
// goes to rank j; the result holds the blocks received from each rank.
func (r *Rank) Alltoall(data []float32, b Backend, opt CollectiveOptions) ([][]float32, error) {
	if err := validateOptions("alltoall", b, opt); err != nil {
		return nil, err
	}
	r.r.BeginOp("alltoall")
	return core.New(opt.core()).Alltoall(r.r, b, data)
}
