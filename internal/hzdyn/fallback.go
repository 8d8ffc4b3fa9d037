package hzdyn

import (
	"errors"
	"fmt"

	"hzccl/internal/fzlight"
)

// AddWithFallback homomorphically sums two fZ-light streams and, when the
// quantized sum overflows int32 (ErrOverflow), transparently falls back to
// the traditional decompress-operate-compress workflow: both operands are
// reconstructed, summed in the raw domain and recompressed with the
// geometry recorded in the container header.
//
// An Add overflow implies the summed quantized magnitudes exceed the
// codec's quantization range, so recompressing at the original bound would
// fail too; the fallback therefore widens the error bound by the smallest
// power-of-two factor that makes the sum representable. The widened bound
// is recorded in the result header, so the precision change is
// self-describing (and a later homomorphic Add against unwidened peers
// fails ErrGeometry instead of silently mixing bounds).
//
// fellBack reports which path produced the result. The fallback
// re-quantizes the raw sum, so unlike the homomorphic path it introduces
// one fresh quantization error of at most the (possibly widened) error
// bound — the same contract every DOC round of a C-Coll collective has.
func AddWithFallback(a, b []byte) (sum []byte, fellBack bool, st Stats, err error) {
	sum, st, err = Add(a, b)
	if err == nil || !errors.Is(err, ErrOverflow) {
		return sum, false, st, err
	}
	sum, err = docAdd(a, b)
	return sum, true, st, err
}

// maxWidenings bounds the error-bound doubling loop in docAdd; 64 factors
// of two cover any finite float64 magnitude.
const maxWidenings = 64

// docAdd is the decompress-operate-compress reference path: it works for
// any pair of streams Add accepts, at DOC cost. It decodes both operands,
// sums them and compresses the sum in a's layout, doubling the error bound
// on each ErrRange until the sum fits (see AddWithFallback).
func docAdd(a, b []byte) ([]byte, error) {
	h, err := fzlight.ParseHeader(a)
	if err != nil {
		return nil, fmt.Errorf("hzdyn: fallback: left operand: %w", err)
	}
	da, err := fzlight.Decompress(a)
	if err != nil {
		return nil, fmt.Errorf("hzdyn: fallback: left operand: %w", err)
	}
	db, err := fzlight.Decompress(b)
	if err != nil {
		return nil, fmt.Errorf("hzdyn: fallback: right operand: %w", err)
	}
	if len(da) != len(db) {
		return nil, ErrGeometry
	}
	for i := range da {
		da[i] += db[i]
	}
	for i := 0; i < maxWidenings; i++ {
		out, err := fzlight.CompressLike(da, h)
		if !errors.Is(err, fzlight.ErrRange) {
			return out, err
		}
		h.ErrorBound *= 2
	}
	return nil, fmt.Errorf("hzdyn: fallback: %w after widening the error bound %d times", fzlight.ErrRange, maxWidenings)
}
