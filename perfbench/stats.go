package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one latency class of a run, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of s.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// beyond counts the samples ranked above the q-quantile.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

// tailLevels are the candidate tail percentiles, highest first: a class's
// .tail is the highest of them that leaves at least minBeyond samples
// beyond it at the class's expected sample count.
var tailLevels = []float64{0.99, 0.95, 0.90}

const minBeyond = 10

// tailFor picks the fixed tail percentile for a class expected to collect
// about n samples per run. Each workload calls it with a constant, so the
// percentile never changes between runs of the same workload.
func tailFor(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 2*minBeyond {
			return q
		}
	}
	return tailLevels[len(tailLevels)-1]
}

// describe renders a class summary line: p50, the fixed tail percentile
// with how many samples lie beyond it, and the sample count.
func (s samples) describe(name string, tail float64) string {
	line := fmt.Sprintf("%s: p50=%.3fms p%.0f=%.3fms n=%d beyond=%d", name,
		s.median(), 100*tail, s.quantile(tail), len(s), s.beyond(tail))
	if s.beyond(tail) < minBeyond {
		line += fmt.Sprintf(" (fewer than %d samples beyond the tail)", minBeyond)
	}
	return line
}

// medianDuration is the median of repeated set-up or load timings.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
