package main

import (
	"fmt"
	"time"

	"gpuleak/internal/serve"
)

// served is one op's answer as the client received it.
type served struct {
	ok     bool
	resp   serve.EavesdropResponse
	events []serve.StreamEventData // SSE sessions only
}

// compare checks a served answer against the library path's.
func compare(s served, session bool, want replayOut) error {
	if !sameJSON(s.resp, want.resp) {
		return mismatch("response", s.resp, want.resp)
	}
	if session && !sameJSON(s.events, want.events) {
		return mismatch("key frames", s.events, want.events)
	}
	return nil
}

// checkServed re-runs the sampled ops through the untraced library path
// and counts every answer that differs from the served one as a failure.
func (e *env) checkServed(o *outcome, ref *replayer, ops []int, gen func(int) serve.EavesdropRequest, session func(int) bool, got []served) {
	for _, i := range ops {
		if !got[i].ok {
			continue // already counted as a failed request
		}
		want, err := ref.eavesdrop(gen(i))
		if err == nil {
			err = compare(got[i], session(i), want)
		}
		if err != nil {
			e.fail(o, i, fmt.Errorf("output check: %w", err))
		}
	}
	e.led.record("output_check", map[string]any{"ops": ops})
}

// servedAccuracy scores the served text of ops 0..len(got)-1 against the
// credentials the generator typed; a failed op scores as empty.
func servedAccuracy(got []served, gen func(int) serve.EavesdropRequest) (char, text float64) {
	inferred := make([]string, len(got))
	truth := make([]string, len(got))
	for i, s := range got {
		truth[i] = gen(i).Text
		if s.ok {
			inferred[i] = s.resp.Text
		}
	}
	return accuracy(inferred, truth)
}

// serveOne sends op i over HTTP as the workload does: an SSE session or a
// one-shot /v1/eavesdrop.
func serveOne(f *fleet, req serve.EavesdropRequest, session bool) (served, time.Time, int, error) {
	if session {
		so, err := f.session(req)
		return served{ok: err == nil, resp: so.result, events: so.events}, so.firstKey, so.frames, err
	}
	var s served
	first, err := f.post("/v1/eavesdrop", req, &s.resp)
	s.ok = err == nil
	return s, first, 0, err
}

// traceOps runs each sampled op over HTTP on an otherwise idle server,
// then through the untraced and the traced library paths, and checks
// that all three agree. Each op counts as attempted.
func (e *env) traceOps(o *outcome, f *fleet, ref, tp *replayer, ops []int, gen func(int) serve.EavesdropRequest, session func(int) bool) []tracedOp {
	var out []tracedOp
	for _, i := range ops {
		o.attempted++
		req := gen(i)
		t0 := time.Now()
		got, _, _, err := serveOne(f, req, session(i))
		httpWall := time.Since(t0)
		if err != nil {
			e.fail(o, i, err)
			continue
		}
		t1 := time.Now()
		want, err := ref.eavesdrop(req)
		refWall := time.Since(t1)
		if err != nil {
			e.fail(o, i, err)
			continue
		}
		tp.tr.op = i
		tp.tr.begin("replay")
		traced, err := tp.eavesdrop(req)
		tp.tr.unwind()
		if err == nil {
			err = compare(got, session(i), want)
		}
		if err == nil {
			err = compare(served{resp: traced.resp, events: traced.events}, session(i), want)
		}
		if err != nil {
			e.fail(o, i, fmt.Errorf("traced replay: %w", err))
			continue
		}
		out = append(out, tracedOp{op: i, httpWall: httpWall, refWall: refWall, out: traced})
	}
	return out
}

// pretrain warms f's registry with each configuration on channel ch.
func pretrain(f *fleet, cfgs []config, ch string) error {
	for _, c := range cfgs {
		var resp serve.TrainResponse
		if _, err := f.post("/v1/train", serve.TrainRequest{Device: c.device, App: c.app, Keyboard: c.keyboard, Channel: ch}, &resp); err != nil {
			return err
		}
	}
	return nil
}

// warmReplayer trains the reference models before any timed replay.
func warmReplayer(ref *replayer, cfgs []config, channels ...string) error {
	for _, c := range cfgs {
		cfg, err := c.victimConfig()
		if err != nil {
			return err
		}
		for _, ch := range channels {
			if _, err := ref.model(cfg, ch); err != nil {
				return err
			}
		}
	}
	return nil
}
