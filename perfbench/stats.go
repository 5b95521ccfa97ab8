package main

import (
	"math"
	"math/rand"
	"sort"
)

// tailLadder is the set of percentiles the tail rule chooses from,
// highest first. It stops at p99: a routed run has tens of thousands of
// samples, and above p99 a few stalls of the host decide the value.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// tail is a reported tail percentile: the highest percentile of the
// ladder that has at least ten samples beyond it, with the sample count
// it was taken over.
type tail struct {
	P     float64 // the percentile chosen (0 when there are no samples)
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailOf applies the tail rule to samples (which it sorts in place). With
// fewer than twenty samples not even the median has ten beyond it; the
// maximum is reported then, under percentile 100.
func tailOf(samples []float64) tail { return tailAtMost(samples, tailLadder[0]) }

// tailAtMost applies the tail rule to the ladder's percentiles up to max.
// A workload whose sample count sits near a step of the ladder caps it, so
// that a run a little faster than the last does not report a higher
// percentile.
func tailAtMost(samples []float64, max float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	sort.Float64s(samples)
	for _, p := range tailLadder {
		// The epsilon absorbs float error in 100-p.
		if p <= max && float64(n)*(100-p)/100 >= 10-1e-9 {
			return tail{P: p, Value: percentile(samples, p), N: n}
		}
	}
	return tail{P: 100, Value: samples[n-1], N: n}
}

// median returns the median of samples (which it sorts in place).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// mean returns the arithmetic mean of samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1; the workloads use s = 1, so this sampler
// inverts the cumulative weights by binary search instead.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(n int, s float64, seed int64) *zipf {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next rank.
func (z *zipf) next() int {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
