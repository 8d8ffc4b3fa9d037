package main

import (
	"math"
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0..1) of v by nearest rank on the
// sorted copy; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance rule for this
// benchmark is written in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median; 0 when
// fewer than two values make it undefined.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// perCall times f: it sizes a batch to about a fifth of budget, runs five
// batches and returns the median seconds per call, so one descheduled
// batch does not set the number.
func perCall(budget time.Duration, f func()) float64 {
	f() // warm caches and pools
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if dt := time.Since(t0); dt >= budget/10 || n >= 1<<24 {
			n = int(float64(n)*float64(budget/5)/float64(dt+1)) + 1
			break
		}
		n *= 4
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(batches)
}
