package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailIndex returns the nearest-rank index of the q-quantile in n
// sorted samples, lowered until at least minBeyond samples lie above
// it, and the percentile the index actually represents. ok is false
// when n is too small to leave minBeyond samples beyond any rank.
func tailIndex(n int, q float64) (idx int, eff float64, ok bool) {
	if n <= minBeyond {
		return 0, 0, false
	}
	idx = int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	return idx, float64(idx+1) / float64(n), true
}

// latencies is a sample of request latencies.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// summary is the reported shape of a latency sample: the median and
// the tail percentile the percentile rule allows.
type summary struct {
	N       int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // the percentile Tail represents, e.g. 0.99
}

// summarize reports the median and the p99 (or the highest percentile
// with minBeyond samples beyond it) of l.
func summarize(l latencies) (summary, error) {
	s := l.sorted()
	idx, eff, ok := tailIndex(len(s), 0.99)
	if !ok {
		return summary{}, fmt.Errorf("%d latency samples leave fewer than %d beyond any percentile", len(s), minBeyond)
	}
	return summary{N: len(s), P50: s[(len(s)-1)/2], Tail: s[idx], TailPct: eff}, nil
}

// tailSlices is how many consecutive slices of a run summarizeRun
// takes the tail of; odd, so the median is one slice's tail.
const tailSlices = 7

// summarizeRun summarizes a run's latencies, lat[i] observed at at[i].
// The median is over every sample. The tail is the median of the p99s
// (by the percentile rule) of tailSlices consecutive slices of the run
// in time order, so a stall of the shared host confined to one slice
// does not decide the run's tail.
func summarizeRun(lat latencies, at []time.Duration) (summary, error) {
	all, err := summarize(lat)
	if err != nil {
		return summary{}, err
	}
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return at[order[i]] < at[order[j]] })
	var tails latencies
	eff := 1.0
	for k := 0; k < tailSlices; k++ {
		var slice latencies
		for _, i := range order[k*len(order)/tailSlices : (k+1)*len(order)/tailSlices] {
			slice = append(slice, lat[i])
		}
		s, err := summarize(slice)
		if err != nil {
			return summary{}, fmt.Errorf("slice %d of %d: %w", k+1, tailSlices, err)
		}
		tails = append(tails, s.Tail)
		eff = min(eff, s.TailPct)
	}
	all.Tail, all.TailPct = tails.sorted()[tailSlices/2], eff
	return all, nil
}

// pctLabel formats 0.99 as "99" and 0.998 as "99.8".
func pctLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
