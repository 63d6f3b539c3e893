package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// batchModel is a synthetic classifier with enough structure to exercise
// every ClassifyDenoised branch: key hits, noise hits, denoised compound
// hits, and unknowns.
func batchModel() *attack.Model {
	vec := func(vals ...float64) trace.Vec {
		var v trace.Vec
		copy(v[:], vals)
		return v
	}
	return &attack.Model{
		Key:      attack.ModelKey{Device: "batch-test", Keyboard: "test"},
		Weights:  trace.Ones(),
		Cth:      12,
		NoiseTol: 4,
		Keys: map[string]trace.Vec{
			"a": vec(100, 40, 10, 1000),
			"b": vec(160, 70, 25, 1400),
			"c": vec(220, 95, 40, 1900),
		},
		Noise: []attack.NoiseCentroid{
			{Class: attack.NoisePopupHide, V: vec(90, 35, 8, 900)},
			{Class: attack.NoiseEcho, V: vec(6, 2, 1, 90)},
		},
		Launch: vec(500, 200, 50, 5000),
	}
}

// batchInputs builds a deterministic spread of (sim-time, vector) jobs:
// perturbed key centroids, noise, compounds, and garbage, with timestamps
// spanning several coalescing windows.
func batchInputs(n int) ([]sim.Time, []trace.Vec) {
	ats := make([]sim.Time, n)
	vecs := make([]trace.Vec, n)
	base := [][4]float64{
		{100, 40, 10, 1000},  // key a
		{160, 70, 25, 1400},  // key b
		{6, 2, 1, 90},        // echo noise
		{106, 42, 11, 1090},  // a + echo compound
		{400, 400, 400, 400}, // garbage
	}
	for i := 0; i < n; i++ {
		b := base[i%len(base)]
		var v trace.Vec
		for d := 0; d < 4; d++ {
			v[d] = b[d] + float64((i*7+d*3)%5)
		}
		vecs[i] = v
		ats[i] = sim.Time(i) * 3 * sim.Millisecond
	}
	return ats, vecs
}

// TestBatcherIdentity pins the micro-batcher's whole contract: for every
// coalescing window and batch cap, under concurrent submission from many
// goroutines, every verdict equals the direct ClassifyDenoised call for
// the same vector. Batch composition shapes dispatch, never results.
func TestBatcherIdentity(t *testing.T) {
	m := batchModel()
	ats, vecs := batchInputs(200)
	want := make([]attack.Verdict, len(vecs))
	for i, v := range vecs {
		want[i] = m.ClassifyDenoised(v)
	}
	windows := []sim.Time{0, sim.Millisecond, 8 * sim.Millisecond, sim.Second}
	maxes := []int{1, 4, 16}
	for _, w := range windows {
		for _, max := range maxes {
			t.Run(fmt.Sprintf("window=%d/max=%d", w, max), func(t *testing.T) {
				b := NewBatcher(2, w, max, obs.NewMetrics())
				defer b.Close()
				var wg sync.WaitGroup
				for i := range vecs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got := b.Classify(i%3, m, ats[i], vecs[i])
						if got != want[i] {
							t.Errorf("job %d: batched %+v != direct %+v", i, got, want[i])
						}
					}(i)
				}
				wg.Wait()
			})
		}
	}
}

// TestBatcherCoalesces pins that the batcher actually batches: with an
// unbounded window and concurrent submitters, at least one flush carries
// more than one job (and the job count always reconciles).
func TestBatcherCoalesces(t *testing.T) {
	m := batchModel()
	_, vecs := batchInputs(64)
	met := obs.NewMetrics()
	b := NewBatcher(1, sim.Second, 16, met)
	defer b.Close()
	deadline := time.Now().Add(10 * time.Second)
	var total int64
	for met.Snapshot()["serve.batch.coalesced"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no coalesced flush after %d jobs (snapshot %v)", total, met.Snapshot())
		}
		var wg sync.WaitGroup
		for i := range vecs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				b.Classify(0, m, 0, vecs[i])
			}(i)
		}
		wg.Wait()
		total += int64(len(vecs))
	}
	if jobs := met.Snapshot()["serve.batch.jobs"]; jobs != float64(total) {
		t.Fatalf("serve.batch.jobs = %v, want %v", jobs, total)
	}
}

// TestBatcherWindowSplitsFlushes pins the window rule: jobs whose
// timestamps are farther apart than the window may not share a flush, so
// with a zero window and distinct timestamps queued behind a parked
// dispatcher, every flush carries exactly one job.
func TestBatcherWindowSplitsFlushes(t *testing.T) {
	m := batchModel()
	met := obs.NewMetrics()
	b := NewBatcher(1, 0, 16, met)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Classify(0, m, sim.Time(i)*sim.Millisecond, trace.Vec{})
		}(i)
	}
	wg.Wait()
	snap := met.Snapshot()
	if snap["serve.batch.coalesced"] != 0 {
		t.Fatalf("zero-window batcher coalesced distinct timestamps: %v", snap)
	}
	if snap["serve.batch.jobs"] != 8 || snap["serve.batch.flushes"] != 8 {
		t.Fatalf("jobs/flushes = %v/%v, want 8/8",
			snap["serve.batch.jobs"], snap["serve.batch.flushes"])
	}
}

// TestBatcherClassifyAllocs pins a warm Classify round trip (pool get,
// enqueue, dispatch, flush, reply, pool put) at zero allocations: jobs
// come from the pool with their reply channel already made, and the
// dispatcher reuses one batch slice forever. The count is per call: the
// race detector drops about one sync.Pool Put in four on purpose, which
// stays under one allocation per call but not per batch of calls.
func TestBatcherClassifyAllocs(t *testing.T) {
	m := batchModel()
	ats, vecs := batchInputs(50)
	b := NewBatcher(1, sim.Millisecond, 16, obs.NewMetrics())
	defer b.Close()
	i := 0
	classify := func() {
		b.Classify(0, m, ats[i%len(ats)], vecs[i%len(vecs)])
		i++
	}
	classify()
	if got := testing.AllocsPerRun(200, classify); got != 0 {
		t.Errorf("warm Batcher.Classify: %v allocs per call, want 0", got)
	}
}
