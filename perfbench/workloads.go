package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"gpuleak/internal/stats"
)

// setupReps is how many times an untraced run sets up from scratch; the
// reported setup_s is the median, and the last fleet serves the window.
const setupReps = 7

// setupFleet builds fresh fleets and warms each; it returns the last one
// and the median set-up time in seconds.
func setupFleet(e *env, warm func(*fleet) error) (*fleet, float64, error) {
	reps := setupReps
	if e.trace {
		reps = 1
	}
	var times []float64
	var f *fleet
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		f = newFleet()
		if err := warm(f); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	e.led.record("setup", map[string]any{"seconds": times})
	return f, median(times), nil
}

// window is one timed window's measurements.
type window struct {
	samples       []sample
	elapsed       time.Duration
	heap          heapStats
	cpu           time.Duration      // process CPU time (user + system)
	before, after map[string]float64 // /metrics snapshots; nil without a fleet
}

// timedWindow runs drive with allocation and heap sampling around it, and
// snapshots the fleet's /metrics before and after when f is non-nil.
func timedWindow(f *fleet, drive func() ([]sample, time.Duration)) (window, error) {
	var w window
	var err error
	if f != nil {
		if w.before, err = f.scrape(); err != nil {
			return w, err
		}
	}
	runtime.GC() // every window starts from the same collected heap
	mem := startMem()
	cpu0 := cpuTime()
	w.samples, w.elapsed = drive()
	w.cpu = cpuTime() - cpu0
	w.heap = mem.finish()
	if f != nil {
		if w.after, err = f.scrape(); err != nil {
			return w, err
		}
	}
	return w, nil
}

// ok returns the samples that succeeded.
func (w window) ok() []sample {
	var out []sample
	for _, s := range w.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// fail counts one op's failure in o, the ledger and standard error.
func (e *env) fail(o *outcome, op int, err error) {
	o.failed++
	e.led.record("failure", map[string]any{"op": op, "error": err.Error()})
	fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", op, err)
}

// account counts the window's ops as attempted and its errors as failed.
func (e *env) account(o *outcome, w window) {
	o.attempted += len(w.samples)
	for _, s := range w.samples {
		if s.err != nil {
			e.fail(o, s.op, s.err)
		}
	}
}

// tails returns the window's p99 latency and p99 time to first result,
// with the number of samples beyond each.
func (w window) tails() (p99 float64, beyond int, f99 float64, fbeyond int) {
	lat, first := w.latencies()
	p99, beyond = quantile(lat, 0.99)
	f99, fbeyond = quantile(first, 0.99)
	return p99, beyond, f99, fbeyond
}

// latencies returns the successful ops' latencies and times to first
// result, in milliseconds, both timed from when each op was sent.
func (w window) latencies() (lat, first []float64) {
	for _, s := range w.ok() {
		lat = append(lat, ms(s.latency()))
		if s.first > 0 {
			first = append(first, ms(s.first-s.sent))
		}
	}
	return lat, first
}

// addEndToEnd appends the end-to-end metrics of an untraced run, in
// BENCHMARK.json order, and records each, with the sample counts and the
// window's p99 tails, in the ledger.
func (e *env) addEndToEnd(o *outcome, setup float64, w window, charAcc, textAcc float64) {
	lat, first := w.latencies()
	p99, beyond, f99, fbeyond := w.tails()
	e.led.ops(w.samples)
	e.led.record("samples", map[string]any{
		"latency_n": len(lat), "latency_p99_ms": p99, "latency_p99_beyond": beyond,
		"first_key_n": len(first), "first_key_p99_ms": f99, "first_key_p99_beyond": fbeyond,
		"elapsed_s": w.elapsed.Seconds(), "cpu_ms_per_op": ms(w.cpu) / float64(max(len(w.samples), 1)),
		"fail_ratio":        ratio(float64(o.failed), float64(o.attempted)),
		"heap_inuse_max_mb": w.heap.inuseMax / (1 << 20), "heap_inuse_p99_mb": w.heap.inuseP99 / (1 << 20),
		"heap_live_max_mb": w.heap.liveMax / (1 << 20), "heap_goal_max_mb": w.heap.goalMax / (1 << 20),
	})
	o.add("setup_s", setup, "s")
	o.add("throughput_per_s", float64(len(lat))/w.elapsed.Seconds(), "op/s")
	o.add("latency_p50_ms", median(lat), "ms")
	o.add("first_key_p50_ms", median(first), "ms")
	o.add("char_acc", charAcc, "ratio")
	o.add("text_acc", textAcc, "ratio")
	o.add("alloc_kb_per_op", float64(w.heap.alloc)/1024/float64(max(len(w.samples), 1)), "KiB")
	o.add("heap_peak_mb", w.heap.inuseP99/(1<<20), "MiB")
	e.led.metrics(o.metrics)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// accuracy scores inferred credentials against the typed ones.
func accuracy(inferred, truth []string) (char, text float64) {
	return stats.CharAccuracy(inferred, truth), stats.TextAccuracy(inferred, truth)
}

// sameJSON reports whether two values encode to identical JSON: the
// served answer (decoded from the wire) against the library path's.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}

// mismatch describes an output that differs from the library path.
func mismatch(what string, served, want any) error {
	x, _ := json.Marshal(served)
	y, _ := json.Marshal(want)
	return fmt.Errorf("%w: %s: served %s, library path %s", errMismatch, what, x, y)
}
