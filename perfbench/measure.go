package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// endToEnd accumulates one run's end-to-end measurements.
type endToEnd struct {
	setupS     []float64 // one entry per set-up repetition
	opMs       []float64 // one entry per measured operation
	wallS      float64   // seconds inside the measured phases
	allocBytes uint64    // bytes allocated inside the measured phases
	heapLive   []float64 // live heap after each collection inside them
}

// emit reports the end-to-end metrics. A traced run reports per-layer
// metrics instead, so emit only prints there.
func (e *endToEnd) emit(r *report) error {
	if len(e.opMs) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	n := float64(len(e.opMs))
	sorted := append([]float64(nil), e.opMs...)
	sort.Float64s(sorted)
	p50 := percentile(sorted, 50)
	tail, label := tailPercentile(sorted)
	fmt.Printf("operations: %d in %.3f s; setup repetitions: %d\n", len(sorted), e.wallS, len(e.setupS))
	fmt.Printf("op_ms_tail is %s of %d samples\n", label, len(sorted))
	live := append([]float64(nil), e.heapLive...)
	sort.Float64s(live)
	fmt.Printf("live heap over %d collections: p50 %.1f MB, p90 %.1f MB, max %.1f MB\n",
		len(live), percentile(live, 50)/1e6, percentile(live, 90)/1e6, live[len(live)-1]/1e6)
	if r.traced {
		return nil
	}
	r.set("setup_s", median(e.setupS))
	r.set("op_ms_p50", p50)
	r.set("op_ms_tail", tail)
	r.set("ops_per_s", n/e.wallS)
	r.set("alloc_mb_per_op", float64(e.allocBytes)/1e6/n)
	r.set("heap_peak_mb", percentile(live, 90)/1e6)
	return nil
}

// tailMaxPercentile caps the tail percentile. Above p99, the sim-*
// workloads' tail is set by rare multi-millisecond stalls that hit
// every transaction type alike, and it moved by a quarter between
// seeds.
const tailMaxPercentile = 99

// tailPercentile returns the highest percentile, up to
// tailMaxPercentile, that has at least ten samples beyond it, and its
// label. With ten samples or fewer no percentile has ten beyond it; the
// tail then repeats the median, which stays steady where the maximum of
// two or three samples does not.
func tailPercentile(sorted []float64) (float64, string) {
	n := len(sorted)
	if n <= 10 {
		return percentile(sorted, 50), "the median (no percentile has ten samples beyond it)"
	}
	p := min(tailMaxPercentile, 100*float64(n-10)/float64(n))
	return percentile(sorted, p), fmt.Sprintf("p%.4g (%d samples beyond)", p, n-int(math.Ceil(p/100*float64(n))))
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase measures one stretch of timed work: wall time, bytes allocated
// and the in-use heap, sampled every few milliseconds by a goroutine
// that the phase stops and waits for. The in-use heap is the live heap
// each garbage collection marked: what the program keeps, without the
// garbage that GC timing adds on top. heap_peak_mb is the 90th
// percentile of those values, not their maximum: on daemon-hotel the
// maximum comes from rare moments when collection meets two concurrent
// solves, and it moved by 40% between runs.
type phase struct {
	start   time.Time
	alloc0  uint64
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	live    []float64 // each distinct live-heap value seen
}

const heapSampleEvery = 2 * time.Millisecond

func beginPhase() *phase {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p := &phase{
		alloc0:  m.TotalAlloc,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	p.sampleHeap()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sampleHeap()
			}
		}
	}()
	p.start = time.Now()
	return p
}

// sampleHeap records the live heap when a collection has changed it.
func (p *phase) sampleHeap() {
	metrics.Read(p.samples)
	v := float64(p.samples[0].Value.Uint64())
	if len(p.live) == 0 || p.live[len(p.live)-1] != v {
		p.live = append(p.live, v)
	}
}

// end stops the phase, adds it to e, and returns its wall time.
func (p *phase) end(e *endToEnd) time.Duration {
	d := time.Since(p.start)
	close(p.stop)
	<-p.done
	p.sampleHeap()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.wallS += d.Seconds()
	e.allocBytes += m.TotalAlloc - p.alloc0
	e.heapLive = append(e.heapLive, p.live...)
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
