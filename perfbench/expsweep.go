package main

import (
	"fmt"
	"time"

	"gpuleak/internal/exp"
)

// exp-sweep: closed loop, 1 client; an op is one quick-scale pass of the
// chaos, arms, fusion and fig17 experiments through internal/exp at
// Workers 2, all seeded from the workload seed. It measures the trial
// harnesses and internal/parallel, which no served request reaches. Every
// pass must reproduce the set-up pass exactly.
var expIDs = []string{"chaos", "arms", "fusion", "fig17"}

const (
	expMinOps = 3
	expTraced = 3
)

// expPass runs one pass, with an "exp.<id>" span per experiment when tr
// is non-nil.
func expPass(seed int64, tr *tracer) (results []string, fig17 *exp.Result, err error) {
	for _, id := range expIDs {
		x, ok := exp.ByID(id)
		if !ok {
			return nil, nil, fmt.Errorf("experiment %q is not registered", id)
		}
		tr.begin("exp." + id)
		res, err := x.Run(exp.Options{Quick: true, Seed: seed, Workers: 2})
		tr.end()
		if err != nil {
			return nil, nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		// fmt prints maps in key order and NaN as NaN, so equal results
		// print equal.
		results = append(results, fmt.Sprint(res.Metrics)+"\n"+res.Table.String())
		if id == "fig17" {
			fig17 = res
		}
	}
	return results, fig17, nil
}

func samePass(a, b []string) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%w: experiment %s: pass result %q, set-up pass %q", errMismatch, expIDs[i], a[i], b[i])
		}
	}
	return nil
}

func runExpSweep(e *env) (*outcome, error) {
	// Set-up is the warm pass: it trains every model the experiments share
	// through the process-wide model cache, which cannot be emptied from
	// outside, so it runs once.
	t0 := time.Now()
	want, fig17, err := expPass(e.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0).Seconds()
	e.led.record("setup", map[string]any{"seconds": []float64{setup}})
	// A pass delivers its results together when it ends, so its first
	// result arrives with its last.
	do := func(int) (time.Time, error) {
		got, _, err := expPass(e.seed, nil)
		if err == nil {
			err = samePass(got, want)
		}
		return time.Now(), err
	}
	w, err := timedWindow(nil, func() ([]sample, time.Duration) {
		return closedLoop(1, e.window, expMinOps, do)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	e.account(o, w)
	if !e.trace {
		e.addEndToEnd(o, setup, w, fig17.Metric("char_acc"), fig17.Metric("avg_text_acc"))
		return o, nil
	}
	tr := newTracer()
	var roots []float64
	for p := 0; p < expTraced; p++ {
		o.attempted++
		tr.op = p
		root := len(tr.spans)
		tr.begin("pass")
		got, _, err := expPass(e.seed, tr)
		tr.unwind()
		if err == nil {
			err = samePass(got, want)
		}
		if err != nil {
			e.fail(o, p, fmt.Errorf("traced pass: %w", err))
			continue
		}
		roots = append(roots, float64(tr.spans[root].dur()))
	}
	var untraced []float64
	for _, s := range w.ok() {
		untraced = append(untraced, float64(s.latency()))
	}
	lt := aggregate(tr.spans)
	l := map[string]float64{"trace.overhead_ratio": ratio(median(roots), median(untraced))}
	windowLayers(l, w)
	for _, id := range expIDs {
		l["exp."+id+".s"] = median(lt.dur["exp."+id]) / 1e9
	}
	return o, e.addPerLayer(o, l, tr)
}
