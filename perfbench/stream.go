package main

import (
	"sync/atomic"
	"time"

	"gpuleak/internal/serve"
)

// stream-robust: closed loop, 2 clients. Three of four ops are SSE
// sessions with practical typing, a fault profile and a defense; the
// fourth is a one-shot kgsl + proccount fusion request under CPU
// starvation. It uses the serve, sampler and KGSL layers differently from
// eavesdrop-hot: streaming writes, retries, wrapped probes and a second
// channel. It is a closed loop rather than an arrival schedule: at a fixed
// rate, a host slowdown turned into queueing and the heap peak into a
// count of overlapping sessions, and both spread past their bounds.
const (
	streamAccOps  = 1000 // ops 0..999 always run; accuracy is scored on them
	streamChecked = 48
	streamTraced  = 48
	streamAllocs  = 8
)

func runStreamRobust(e *env) (*outcome, error) {
	warm := func(f *fleet) error {
		if err := pretrain(f, hotConfigs, ""); err != nil {
			return err
		}
		return pretrain(f, hotConfigs, "proccount")
	}
	f, setup, err := setupFleet(e, warm)
	if err != nil {
		return nil, err
	}
	defer f.close()
	gen := func(i int) serve.EavesdropRequest { return streamOp(e.seed, i) }
	session := func(i int) bool { return !isFusion(i) }
	got := make([]served, streamAccOps)
	var frames, sessions atomic.Int64
	do := func(i int) (time.Time, error) {
		s, first, n, err := serveOne(f, gen(i), session(i))
		if session(i) && err == nil {
			frames.Add(int64(n))
			sessions.Add(1)
		}
		if i < streamAccOps {
			got[i] = s
		}
		return first, err
	}
	w, err := timedWindow(f, func() ([]sample, time.Duration) {
		return closedLoop(clients, e.window, streamAccOps, do)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	e.account(o, w)
	ref := newReplayer()
	if err := warmReplayer(ref, hotConfigs, "", "proccount"); err != nil {
		return nil, err
	}
	if !e.trace {
		e.checkServed(o, ref, sampleOps(e.seed, streamAccOps, streamChecked), gen, session, got)
		char, text := servedAccuracy(got, gen)
		e.addEndToEnd(o, setup, w, char, text)
		return o, nil
	}
	l := map[string]float64{}
	windowLayers(l, w)
	l["serve.sse_frames"] = ratio(float64(frames.Load()), float64(sessions.Load()))
	tp := &replayer{models: ref.models, tr: newTracer()}
	sample := sampleOps(e.seed, streamAccOps, streamTraced)
	replayLayers(l, tp.tr, e.traceOps(o, f, ref, tp, sample, gen, session), true)
	var reqs []serve.EavesdropRequest
	for _, i := range sample[:streamAllocs] {
		reqs = append(reqs, gen(i))
	}
	if err := allocLayers(l, reqs); err != nil {
		return nil, err
	}
	return o, e.addPerLayer(o, l, tp.tr)
}
