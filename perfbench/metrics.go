package main

import (
	"math"
	"sort"
	"time"
)

// samples is one latency class's measurements.
type samples []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank method,
// or 0 when there are no samples.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(c) {
		k = len(c) - 1
	}
	return c[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float values (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations by outcome. Failed ops (errors), shed ops
// (admission refusals) and wrong answers all count against
// success_rate; only completed ops carry a latency sample.
type tally struct {
	attempted, failed, shed, wrong int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.shed += o.shed
	t.wrong += o.wrong
}

func (t tally) bad() int64 { return t.failed + t.shed + t.wrong }

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSlices is how many equal time slices a window's p50 and op rate
// are taken over; maxChunks bounds the equal-count chunks its p99 is
// taken over.
const (
	timeSlices = 10
	maxChunks  = 5
)

// summary is a window's op latencies and rate, each the median over
// sub-windows, so that a transient stall of the host moves one
// sub-window's figure rather than the run's. p50 and the rate are
// medians over equal time slices; p99 is the median over equal-count
// chunks of at least 1000 ops each (one chunk below 2000 ops), so every
// p99 rests on at least 1000 samples whenever the window has them.
type summary struct {
	p50, p99 time.Duration
	rate     float64
	chunk    int // ops per p99 chunk
	// the per-slice and per-chunk figures, for the run record
	p50s, rates, p99s []float64
}

func summarize(lat, at samples, window time.Duration) summary {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	var s summary
	slice := window / timeSlices
	for k, j := 0, 0; k < timeSlices; k++ {
		var part samples
		for ; j < len(idx) && (at[idx[j]] < slice*time.Duration(k+1) || k == timeSlices-1); j++ {
			part = append(part, lat[idx[j]])
		}
		if len(part) > 0 {
			s.p50s = append(s.p50s, ms(part.quantile(0.5)))
		}
		s.rates = append(s.rates, float64(len(part))/slice.Seconds())
	}
	n := min(max(len(lat)/1000, 1), maxChunks)
	s.chunk = len(lat) / n
	for k := 0; k < n; k++ {
		part := make(samples, 0, s.chunk)
		for _, i := range idx[k*s.chunk : (k+1)*s.chunk] {
			part = append(part, lat[i])
		}
		s.p99s = append(s.p99s, ms(part.quantile(0.99)))
	}
	s.p50 = time.Duration(median(s.p50s) * float64(time.Millisecond))
	s.p99 = time.Duration(median(s.p99s) * float64(time.Millisecond))
	s.rate = median(s.rates)
	return s
}
