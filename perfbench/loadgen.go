package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation as its client saw it. Times are offsets from
// the start of the timed window.
type sample struct {
	op    int
	sent  time.Duration
	first time.Duration // first result byte or key frame; 0 when none came
	done  time.Duration
	err   error
}

// latency is the op's wall time from send to completion.
func (s sample) latency() time.Duration { return s.done - s.sent }

// doFunc runs operation i and reports when its first result arrived (the
// zero time when none did).
type doFunc func(i int) (first time.Time, err error)

// closedLoop runs n clients that each send their next op as soon as the
// previous one completes, until the window has passed and at least minOps
// ops were issued, so a fixed op set always completes. It returns the
// samples in op order and the time from the start to the last completion.
func closedLoop(n int, window time.Duration, minOps int, do doFunc) ([]sample, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(start) >= window && int(next.Load()) >= minOps {
					return
				}
				i := int(next.Add(1) - 1)
				sent := time.Since(start)
				first, err := do(i)
				s := sample{op: i, sent: sent, done: time.Since(start), err: err}
				if !first.IsZero() {
					s.first = first.Sub(start)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]sample) ([]sample, time.Duration) {
	var all []sample
	var last time.Duration
	for _, p := range per {
		for _, s := range p {
			all = append(all, s)
			last = max(last, s.done)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op < all[j].op })
	return all, last
}

// memProbe measures the allocation volume of a timed window and samples
// its heap through runtime/metrics, which does not stop the world.
type memProbe struct {
	alloc0 uint64
	stop   chan struct{}
	done   chan struct{}
	// Written by the sampling goroutine, read after done is closed.
	inuse            []float64 // sampled HeapInuse
	liveMax, goalMax uint64
}

// memSampleEvery is the heap sampling period.
const memSampleEvery = 5 * time.Millisecond

var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
}

func startMem() *memProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &memProbe{alloc0: ms.TotalAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		ss := make([]metrics.Sample, len(heapMetrics))
		for i, n := range heapMetrics {
			ss[i].Name = n
		}
		for {
			metrics.Read(ss)
			p.inuse = append(p.inuse, float64(ss[0].Value.Uint64()+ss[1].Value.Uint64()))
			p.liveMax = max(p.liveMax, ss[2].Value.Uint64())
			p.goalMax = max(p.goalMax, ss[3].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// heapStats is a window's memory use in bytes.
type heapStats struct {
	alloc                                uint64
	inuseMax, inuseP99, liveMax, goalMax float64
}

// finish stops sampling and returns what it measured.
func (p *memProbe) finish() heapStats {
	close(p.stop)
	<-p.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := heapStats{alloc: ms.TotalAlloc - p.alloc0, liveMax: float64(p.liveMax), goalMax: float64(p.goalMax)}
	h.inuseMax, _ = quantile(p.inuse, 1)
	h.inuseP99, _ = quantile(p.inuse, 0.99)
	return h
}
