// Package bufpool is the shared buffer recycler behind the zero-allocation
// hot paths: compressed payloads (fzlight.CompressInto, hzdyn.AddInto), the
// payloads a fabric hands a receiver (the in-process fabric's copy for the
// receiver, the TCP reader's frame bodies) and the per-chunk integer scratch
// of the codecs all draw from and return to the pools here instead of
// churning the garbage collector once per call or per ring step.
//
// Design:
//
//   - Size classes. Buffers are binned by power-of-two capacity: class i
//     holds buffers with cap >= 1<<i. Get rounds the request up to the next
//     class, so a returned buffer always has the requested length available;
//     Put bins by the buffer's actual capacity (rounded down), so foreign
//     buffers (e.g. make()'d ones recycled opportunistically) are accepted.
//     A length that is not a power of two looks one class lower first, where
//     a buffer of exactly that length lands when it comes back.
//   - Value-based API. Get returns a plain []T and Put takes one back; the
//     *[]T boxes sync.Pool requires are themselves recycled through a box
//     pool, so a steady-state Get/Put cycle performs zero allocations.
//   - Telemetry. Hits, misses and bytes recycled are counted per element
//     type under bufpool.* so pool effectiveness is visible in every
//     metrics export.
//
// Ownership rule: a buffer handed to Put must not be referenced anywhere
// else — and must be the caller's to give. Put accepts foreign buffers
// silently, so recycling memory someone else still owns (a byte view of a
// caller's result vector, say) hands it to the next Get. cluster.Send never
// recycles: the sender keeps its buffer and may Put it the moment Send
// returns, and only the fabric that hands bytes to another owner copies
// them — into a buffer from here, which the receiver Puts once it has
// consumed the payload. See internal/cluster.
//
// Results may come from the pool too (KeepFloat32s): a collective's result
// vector is recycled memory when the pool holds some, and is its caller's
// from then on. Core never puts a result back — only its own scratch, such
// as the full vector a reduce-scatter cuts its block from — and serve puts
// back only a job's input, once its last holder is done with it; neither
// knows who else still reads a result it handed out.
package bufpool

import (
	"math/bits"
	"sync"

	"hzccl/internal/telemetry"
)

// numClasses covers capacities up to 2^31 elements; larger buffers bypass
// the pool entirely (they are rare enough that the GC handles them fine).
const numClasses = 32

var (
	mHits     = telemetry.C("bufpool.hits")
	mMisses   = telemetry.C("bufpool.misses")
	mPuts     = telemetry.C("bufpool.puts")
	mRecycled = telemetry.C("bufpool.bytes_recycled")
)

// typedPool is one element type's set of size-classed pools.
type typedPool[T any] struct {
	classes  [numClasses]sync.Pool // holds *[]T with cap >= 1<<i
	boxes    sync.Pool             // spare *[]T headers, recycled between Get and Put
	elemSize int64
}

// class returns the pool index for a requested length (round up: buffers in
// class i are guaranteed to hold 1<<i elements).
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n with undefined contents, drawn from the
// pool when a buffer of sufficient capacity is available.
func (p *typedPool[T]) Get(n int) []T {
	if s, ok := p.take(n); ok {
		return s
	}
	if c := classFor(n); c < numClasses {
		return make([]T, n, 1<<c)
	}
	return make([]T, n)
}

// keep is Get for a buffer the caller keeps: a miss allocates exactly n
// elements, as make does, so a kept buffer rounds up only memory the pool
// already held.
func (p *typedPool[T]) keep(n int) []T {
	if s, ok := p.take(n); ok {
		return s
	}
	return make([]T, n)
}

// take draws a buffer of length n from its class, counting the hit or miss.
// A length between two powers of two first tries the class below its own,
// where Put bins a buffer of exactly that length (a keep miss come back),
// and takes what it finds there if it is long enough.
func (p *typedPool[T]) take(n int) ([]T, bool) {
	c := classFor(n)
	if c >= numClasses {
		mMisses.Inc()
		return nil, false
	}
	if n&(n-1) != 0 {
		if s, ok := p.pop(c - 1); ok {
			if cap(s) >= n {
				mHits.Inc()
				return s[:n], true
			}
			p.push(c-1, s)
		}
	}
	if s, ok := p.pop(c); ok {
		mHits.Inc()
		return s[:n], true
	}
	mMisses.Inc()
	return nil, false
}

// pop takes a buffer from class c, if it holds one, and recycles its box.
func (p *typedPool[T]) pop(c int) ([]T, bool) {
	x := p.classes[c].Get()
	if x == nil {
		return nil, false
	}
	box := x.(*[]T)
	s := *box
	*box = nil
	p.boxes.Put(box)
	return s, true
}

// push stores s in class c, in a recycled box.
func (p *typedPool[T]) push(c int, s []T) {
	var box *[]T
	if x := p.boxes.Get(); x != nil {
		box = x.(*[]T)
	} else {
		box = new([]T)
	}
	*box = s[:cap(s)]
	p.classes[c].Put(box)
}

// Put returns a buffer to the pool. The caller must not retain any
// reference to it (or to sub-slices of it) after Put.
func (p *typedPool[T]) Put(s []T) {
	c := capClass(cap(s))
	if c < 0 {
		return // capacity 0: nothing worth recycling
	}
	p.push(c, s)
	mPuts.Inc()
	mRecycled.Add(int64(cap(s)) * p.elemSize)
}

// capClass bins by actual capacity, rounding down: a buffer in class i must
// hold at least 1<<i elements.
func capClass(c int) int {
	if c < 1 {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	if k >= numClasses {
		k = numClasses - 1
	}
	return k
}

var (
	bytePool    = &typedPool[byte]{elemSize: 1}
	int32Pool   = &typedPool[int32]{elemSize: 4}
	uint32Pool  = &typedPool[uint32]{elemSize: 4}
	int64Pool   = &typedPool[int64]{elemSize: 8}
	float32Pool = &typedPool[float32]{elemSize: 4}
)

// Bytes returns a pooled []byte of length n (contents undefined).
func Bytes(n int) []byte { return bytePool.Get(n) }

// PutBytes recycles a buffer obtained from Bytes (or any []byte the caller
// owns exclusively).
func PutBytes(s []byte) { bytePool.Put(s) }

// Int32s returns a pooled []int32 of length n (contents undefined).
func Int32s(n int) []int32 { return int32Pool.Get(n) }

// PutInt32s recycles an int32 scratch buffer.
func PutInt32s(s []int32) { int32Pool.Put(s) }

// Uint32s returns a pooled []uint32 of length n (contents undefined).
func Uint32s(n int) []uint32 { return uint32Pool.Get(n) }

// PutUint32s recycles a uint32 scratch buffer.
func PutUint32s(s []uint32) { uint32Pool.Put(s) }

// Int64s returns a pooled []int64 of length n (contents undefined).
func Int64s(n int) []int64 { return int64Pool.Get(n) }

// PutInt64s recycles an int64 scratch buffer (offset tables and prefix
// sums in the block codecs).
func PutInt64s(s []int64) { int64Pool.Put(s) }

// Float32s returns a pooled []float32 of length n (contents undefined).
func Float32s(n int) []float32 { return float32Pool.Get(n) }

// PutFloat32s recycles a float32 buffer.
func PutFloat32s(s []float32) { float32Pool.Put(s) }

// KeepFloat32s returns a []float32 of length n (contents undefined) that
// the caller keeps rather than Puts: a collective's result. It is pooled
// memory when the pool holds a buffer of the class, and otherwise a fresh
// allocation of exactly n, as make([]float32, n) would be.
func KeepFloat32s(n int) []float32 { return float32Pool.keep(n) }
