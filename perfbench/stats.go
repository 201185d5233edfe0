package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tailPercentile applies the reporting rule for tails: the highest
// percentile that still has tailSamples samples beyond it. It returns that
// percentile, the sample at it and the sample count; ok is false when there
// are too few samples for any tail.
func tailPercentile(xs []float64) (pct, val float64, n int, ok bool) {
	n = len(xs)
	if n <= tailSamples {
		return 0, 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-tailSamples) / float64(n), s[n-tailSamples-1], n, true
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Host memory probes read runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world.
const (
	heapLiveMetric   = "/gc/heap/live:bytes"
	heapAllocsMetric = "/gc/heap/allocs:bytes"
)

// heapAllocBytes returns the cumulative bytes the Go heap has allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: heapAllocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the live heap as the last garbage collection marked it
// and keeps the maximum. Heap in use would also count garbage not yet
// collected, which swings with GC pacing from run to run.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLiveMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak.Store(max(h.peak.Load(), s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Peak returns the peak live heap sampled so far, in bytes.
func (h *heapSampler) Peak() uint64 { return h.peak.Load() }

// Stop ends sampling and returns the peak live heap, in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// splitmix64 derives well-mixed values from the workload seed, so every
// input of a run is a function of --seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derive returns the i-th nonzero value of stream tag under seed (a
// workload seed of 0 would make the generator fall back to its default).
func derive(seed, tag, i uint64) uint64 {
	v := splitmix64(splitmix64(splitmix64(seed)^tag) ^ i)
	if v == 0 {
		v = 1
	}
	return v
}
