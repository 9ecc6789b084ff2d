package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of histogram buckets. Bucket i < histBuckets-1
// holds observations ≤ 1µs·2^i (1µs, 2µs, 4µs, … ~67s); the last bucket is
// +Inf. Powers of two keep the index computation branch-free on the hot
// path (one bits.Len64) while covering six decades of latency at ≤2x
// resolution — plenty for p50/p95/p99 on paths spanning microsecond sends
// to multi-second fsync stalls.
const histBuckets = 28

// Histogram is a fixed-shape, log-bucketed latency histogram. Observe is
// lock-free and allocation-free (two atomic adds plus a CAS max), safe for
// any number of concurrent writers. A nil Histogram is a valid no-op sink.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d ≤ 1µs·2^i, clamped to the +Inf bucket.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	us := (uint64(d) + 999) / 1000 // ceil to whole microseconds
	i := bits.Len64(us - 1)
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// bucketBound returns bucket i's inclusive upper bound in seconds.
func bucketBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e6
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	// Raise max before counting the observation: Snapshot loads the counts
	// first and max after them, so any count it sees comes with a max at
	// least as large, and no quantile lands above max.
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// HistSnapshot is a point-in-time summary of a histogram.
type HistSnapshot struct {
	Count         uint64
	Sum           time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
}

// Mean returns the average observation, zero when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot summarizes the histogram. Concurrent observers may land between
// the bucket loads — each load is atomic, so the result is a consistent
// lower bound, never corrupt.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = quantile(&counts, total, s.Max, 0.50)
	s.P95 = quantile(&counts, total, s.Max, 0.95)
	s.P99 = quantile(&counts, total, s.Max, 0.99)
	return s
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank. The +Inf bucket's upper edge is the
// observed max.
func quantile(counts *[histBuckets]uint64, total uint64, max time.Duration, q float64) time.Duration {
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c := float64(counts[i])
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = bucketBound(i - 1)
		}
		upper := bucketBound(i)
		if i == histBuckets-1 || time.Duration(upper*1e9) > max {
			if m := max.Seconds(); m > lower {
				upper = m
			}
		}
		frac := (rank - cum) / c
		return time.Duration((lower + (upper-lower)*frac) * 1e9)
	}
	return max
}

// writeProm renders the histogram as cumulative Prometheus buckets in
// seconds, plus _sum and _count.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < histBuckets-1 {
			le = formatFloat(bucketBound(i))
		}
		l := `le="` + le + `"`
		if labels != "" {
			l = labels + "," + l
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, l, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(time.Duration(h.sum.Load()).Seconds()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), cum)
}
