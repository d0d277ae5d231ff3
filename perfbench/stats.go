package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell-Davis estimate of the q-quantile: a weighted
// sum of all order statistics, the weights being the Beta((n+1)q,
// (n+1)(1-q)) probabilities of the intervals [(i-1)/n, i/n]. Unlike the
// sample quantile it does not jump with whichever one or two samples sit
// at the rank, which matters for populations of programs of different
// sizes.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 3 {
		return quantile(xs, q)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	logNorm := lgab - lga - lgb
	pdf := func(t float64) float64 {
		if t <= 0 || t >= 1 {
			return 0
		}
		return math.Exp(logNorm + (a-1)*math.Log(t) + (b-1)*math.Log1p(-t))
	}
	// Integrate the Beta density over each interval by Simpson's rule.
	const steps = 16
	est, total := 0.0, 0.0
	for i := 0; i < n; i++ {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		w := 0.0
		for k := 0; k < steps; k++ {
			t := lo + float64(k)*h
			w += h / 6 * (pdf(t) + 4*pdf(t+h/2) + pdf(t+h))
		}
		est += w * s[i]
		total += w
	}
	return est / total
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime metrics the benchmark reads.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mIdleCPU     = "/cpu/classes/idle:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// allocBytes is the cumulative heap allocation (MemStats.TotalAlloc).
func allocBytes() float64 { return readMetrics(mAllocBytes)[0] }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the largest live-heap reading (heap-object bytes)
// while it runs.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: mHeapObjects}}
		var peak uint64
		sample := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-h.stop:
				sample()
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}
