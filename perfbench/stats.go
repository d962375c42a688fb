package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place). It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// heapMetric is the live heap: bytes of heap objects still reachable at
// the end of the last GC cycle. Unlike the instantaneous heap size it
// does not depend on when the collector happened to run.
const heapMetric = "/gc/heap/live:bytes"

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// heapSampler polls the live heap every interval on one goroutine and
// keeps the peak. stop ends the polling and returns the peak above the
// baseline the sampler started from.
type heapSampler struct {
	base uint64 // live heap when sampling started
	peak uint64 // written by the polling goroutine, read after wg.Wait
	done chan struct{}
	wg   sync.WaitGroup
}

// startHeapSampler starts polling. base is the live heap the benchmark
// itself accounts for — its inputs and sample buffers — and is
// subtracted from the peak, so the figure is the program's own heap.
func startHeapSampler(base uint64, interval time.Duration) *heapSampler {
	h := &heapSampler{base: base, done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the polling goroutine, waits for it, and returns the peak
// live heap above the baseline, in MiB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return heapAbove(h.peak, h.base)
}

// heapAbove returns the heap bytes above base, in MiB.
func heapAbove(bytes, base uint64) float64 {
	if bytes < base {
		return 0
	}
	return float64(bytes-base) / (1 << 20)
}

// now reads the wall clock. Timing is what this program is for; the
// simulated outputs and request streams it checks take no input from
// the clock.
var now = time.Now

// cpuTime returns the process's user plus system CPU time. Time the
// hypervisor takes from the VM (steal) is not in it, so CPU time over
// wall time shows how much of the host the process got. It is printed
// as a diagnostic next to the metrics, never folded into them.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
