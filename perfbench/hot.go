package main

import (
	"time"

	"gpuleak/internal/serve"
)

// eavesdrop-hot: closed loop, 2 clients, POST /v1/eavesdrop on three
// pre-trained configurations. The registry always hits, so the time goes
// to the per-request path: victim render, KGSL reads, sampler,
// segmentation, classification and serving.
const (
	hotAccOps  = 1500 // ops 0..1499 always run; accuracy is scored on them
	hotChecked = 48   // of those, re-run through the library path
	hotTraced  = 48   // of those, replayed with spans in a traced run
	hotAllocs  = 8    // of those, measured for allocations
)

func runEavesdropHot(e *env) (*outcome, error) {
	f, setup, err := setupFleet(e, func(f *fleet) error { return pretrain(f, hotConfigs, "") })
	if err != nil {
		return nil, err
	}
	defer f.close()
	gen := func(i int) serve.EavesdropRequest { return hotOp(e.seed, i) }
	oneShot := func(int) bool { return false }
	got := make([]served, hotAccOps)
	do := func(i int) (time.Time, error) {
		s, first, _, err := serveOne(f, gen(i), false)
		if i < hotAccOps {
			got[i] = s
		}
		return first, err
	}
	w, err := timedWindow(f, func() ([]sample, time.Duration) {
		return closedLoop(clients, e.window, hotAccOps, do)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	e.account(o, w)
	ref := newReplayer()
	if err := warmReplayer(ref, hotConfigs, ""); err != nil {
		return nil, err
	}
	if !e.trace {
		e.checkServed(o, ref, sampleOps(e.seed, hotAccOps, hotChecked), gen, oneShot, got)
		char, text := servedAccuracy(got, gen)
		e.addEndToEnd(o, setup, w, char, text)
		return o, nil
	}
	l := map[string]float64{}
	windowLayers(l, w)
	tp := &replayer{models: ref.models, tr: newTracer()}
	sample := sampleOps(e.seed, hotAccOps, hotTraced)
	replayLayers(l, tp.tr, e.traceOps(o, f, ref, tp, sample, gen, oneShot), true)
	var reqs []serve.EavesdropRequest
	for _, i := range sample[:hotAllocs] {
		reqs = append(reqs, gen(i))
	}
	if err := allocLayers(l, reqs); err != nil {
		return nil, err
	}
	return o, e.addPerLayer(o, l, tp.tr)
}
