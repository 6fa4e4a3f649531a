package main

import (
	"math"
	"math/bits"
)

// hist is a fixed-size log-linear latency histogram in the HDR style.
// Values below 64 ns get one exact bucket each; every power-of-two range
// above that is split into 64 equal sub-buckets. A quantile is reported
// as the midpoint of the bucket holding its rank, so its relative error
// is at most 1/128 (0.79%). Recording is one array increment and the
// memory is fixed, however long the run: a latency slice would grow the
// heap with the call count and drive the very GC the tail metrics are
// meant to observe.
const (
	subBits     = 6
	subCount    = 1 << subBits
	maxShift    = 34 // top bucket starts at 2^40 ns (about 18 minutes)
	histBuckets = (maxShift + 2) * subCount
)

type hist struct {
	n      int64
	counts [histBuckets]int64
}

// bucketOf maps a value in nanoseconds to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	shift := bits.Len64(u) - subBits - 1
	if shift > maxShift {
		return histBuckets - 1
	}
	return (shift+1)*subCount + int(u>>uint(shift)) - subCount
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := uint(i/subCount - 1)
	lo := int64(i%subCount+subCount) << shift
	width := int64(1) << shift
	return float64(lo) + float64(width-1)/2
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// enough reports whether at least ten samples lie beyond quantile q, the
// least that makes the percentile meaningful.
func (h *hist) enough(q float64) bool {
	return float64(h.n)*(1-q) >= 10
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
