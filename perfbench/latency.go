package main

import "math/bits"

// subBits sets the recorder's resolution: every power-of-two range of
// nanoseconds is split into 2^subBits equal buckets, so a bucket is at most
// 1/128 (0.78%) of its values wide, and interpolation inside it keeps the
// quantile error below that. telemetry.Histogram's power-of-two buckets
// would allow 2x.
const subBits = 7

// maxShift caps the recorder at 2^(maxShift+subBits+1) ns (about 18 min);
// larger samples land in the top bucket.
const maxShift = 33

const numBuckets = (maxShift + 2) << subBits

// recorder is a fixed-size log-linear latency histogram. Its memory does
// not depend on how many samples it holds, so a faster program is not
// charged a larger peak RSS for recording more of them. It is not safe for
// concurrent use: each goroutine records into its own and merge combines.
type recorder struct {
	counts [numBuckets]uint64
	n      uint64
	sum    uint64
}

func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	shift := bits.Len64(ns) - subBits - 1
	if shift > maxShift {
		return numBuckets - 1
	}
	return shift<<subBits + int(ns>>shift)
}

// bucketRange returns the first value of bucket i and its width.
func bucketRange(i int) (low, width uint64) {
	if i < 2<<subBits {
		return uint64(i), 1
	}
	shift := i>>subBits - 1
	mant := uint64(i - shift<<subBits)
	return mant << shift, 1 << shift
}

func (r *recorder) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.counts[bucketOf(uint64(ns))]++
	r.n++
	r.sum += uint64(ns)
}

func (r *recorder) merge(o *recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
	r.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it; 0 when the recorder is empty.
func (r *recorder) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	rank := q * float64(r.n)
	var cum float64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := bucketRange(i)
			return float64(low) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := bucketRange(numBuckets - 1)
	return float64(low + width)
}
