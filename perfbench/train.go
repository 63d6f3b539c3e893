package main

import (
	"fmt"
	"runtime"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// train-sweep: closed loop, 1 client, POST /v1/train over a seeded
// permutation of every device x app x keyboard configuration. No
// configuration recurs within the registry's capacity, so every request
// misses and the offline collection path dominates; the online path is
// nearly absent. Accuracy is scored by eavesdropping on a sample of the
// swept configurations after the window.
const (
	trainChecked = 20 // ops 0..19 always run and are re-trained through the library path
	trainCreds   = 10 // credentials eavesdropped per checked configuration
	trainTraced  = 6  // configurations replayed with spans in a traced run
	trainTracedC = 4  // credentials per traced configuration
	trainWarm    = 4  // configurations trained in set-up
	credOpBase   = 1 << 20
)

func runTrainSweep(e *env) (*outcome, error) {
	walk := trainWalk(e.seed)
	cfgAt := func(i int) config { return walk[i%len(walk)] }
	// Set-up trains the walk's last few configurations, which the window
	// reaches, if ever, only after the registry has long evicted them.
	f, setup, err := setupFleet(e, func(f *fleet) error { return pretrain(f, walk[len(walk)-trainWarm:], "") })
	if err != nil {
		return nil, err
	}
	defer f.close()
	got := make([]*serve.TrainResponse, trainChecked)
	do := func(i int) (time.Time, error) {
		var resp serve.TrainResponse
		first, err := postTrain(f, cfgAt(i), &resp)
		if err == nil && i < trainChecked {
			got[i] = &resp
		}
		return first, err
	}
	w, err := timedWindow(f, func() ([]sample, time.Duration) {
		return closedLoop(1, e.window, trainChecked, do)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	e.account(o, w)
	ref := newReplayer()
	sample := sampleOps(e.seed, trainChecked, trainChecked) // all of them, in seeded order
	credGen := func(id int) serve.EavesdropRequest {
		rng := sim.NewRand(sim.TaskSeed(e.seed^saltTrain, id))
		return cfgAt((id - credOpBase) / trainCreds).request(rng)
	}
	oneShot := func(int) bool { return false }
	if !e.trace {
		var creds []int
		for _, i := range sample {
			cfg, err := cfgAt(i).victimConfig()
			if err != nil {
				return nil, err
			}
			m, _, err := ref.train(cfg)
			if err != nil {
				return nil, err
			}
			ref.models[serve.ChannelKey(serve.TrainConfig(cfg), "")] = m
			if got[i] != nil {
				if want := trainAnswer(cfg, m); !sameJSON(got[i], want) {
					e.fail(o, i, fmt.Errorf("output check: %w", mismatch("train", got[i], want)))
				}
			}
			for j := 0; j < trainCreds; j++ {
				creds = append(creds, credOpBase+i*trainCreds+j)
			}
		}
		char, text := e.credAccuracy(o, f, ref, creds, credGen)
		e.addEndToEnd(o, setup, w, char, text)
		return o, nil
	}

	l := map[string]float64{}
	windowLayers(l, w)
	// A fresh server, so each sampled /v1/train is a cold miss like the
	// replay it is compared with.
	cold := newFleet()
	defer cold.close()
	tp := &replayer{models: map[string]*attack.Model{}, tr: newTracer()}
	var allocs, states, selfs, roots, refs []float64
	var creds []int
	var m0, m1 runtime.MemStats
	for _, i := range sample[:trainTraced] {
		o.attempted++
		cfg, err := cfgAt(i).victimConfig()
		if err != nil {
			return nil, err
		}
		var resp serve.TrainResponse
		t0 := time.Now()
		_, err = postTrain(cold, cfgAt(i), &resp)
		httpWall := time.Since(t0)
		if err != nil {
			e.fail(o, i, err)
			continue
		}
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		m, _, err := ref.train(cfg)
		refWall := time.Since(t1)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		tp.tr.op = i
		rootIdx := len(tp.tr.spans)
		tp.tr.begin("replay")
		tm, n, err := tp.train(cfg)
		tp.tr.unwind()
		if err != nil {
			return nil, err
		}
		want := trainAnswer(cfg, m)
		if !sameJSON(resp, want) || !sameJSON(m, tm) {
			e.fail(o, i, fmt.Errorf("traced replay: %w", mismatch("train", resp, want)))
			continue
		}
		key := serve.ChannelKey(serve.TrainConfig(cfg), "")
		ref.models[key], tp.models[key] = m, m
		root := float64(tp.tr.spans[rootIdx].dur())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		states = append(states, float64(n))
		selfs = append(selfs, float64(httpWall)-root)
		roots = append(roots, root)
		refs = append(refs, float64(refWall))
		for j := 0; j < trainTracedC; j++ {
			creds = append(creds, credOpBase+i*trainCreds+j)
		}
	}
	lt := aggregate(tp.tr.spans)
	l["collect.ms_p50"] = median(lt.dur["collect"]) / 1e6
	l["collect.allocs"] = mean(allocs)
	l["collect.render_states"] = mean(states)
	ops := e.traceOps(o, cold, ref, tp, creds, credGen, oneShot)
	replayLayers(l, tp.tr, ops, false)
	l["serve.self_ms_p50"] = median(selfs) / 1e6
	l["trace.overhead_ratio"] = ratio(median(roots), median(refs))
	var reqs []serve.EavesdropRequest
	for _, id := range creds[:min(len(creds), 4)] {
		reqs = append(reqs, credGen(id))
	}
	if err := allocLayers(l, reqs); err != nil {
		return nil, err
	}
	return o, e.addPerLayer(o, l, tp.tr)
}

func postTrain(f *fleet, c config, resp *serve.TrainResponse) (time.Time, error) {
	first, err := f.post("/v1/train", serve.TrainRequest{Device: c.device, App: c.app, Keyboard: c.keyboard}, resp)
	if err == nil && resp.Cached {
		// The walk never revisits a configuration within the registry's
		// capacity, so a cached answer means the workload is not the one
		// this benchmark defines.
		err = fmt.Errorf("%w: /v1/train for %v answered from the registry", errMismatch, c)
	}
	return first, err
}

// trainAnswer is the /v1/train answer for a miss that trained m.
func trainAnswer(cfg victim.Config, m *attack.Model) serve.TrainResponse {
	return serve.TrainResponse{
		Schema: serve.Schema,
		Model:  serve.ChannelKey(serve.TrainConfig(cfg), ""),
		Keys:   len(m.Keys),
		Noise:  len(m.Noise),
	}
}

// credAccuracy eavesdrops each credential op over HTTP and through the
// library path, checks they agree, and scores the served text.
func (e *env) credAccuracy(o *outcome, f *fleet, ref *replayer, ids []int, gen func(int) serve.EavesdropRequest) (char, text float64) {
	var inferred, truth []string
	for _, id := range ids {
		o.attempted++
		req := gen(id)
		s, _, _, err := serveOne(f, req, false)
		if err == nil {
			var want replayOut
			if want, err = ref.eavesdrop(req); err == nil {
				err = compare(s, false, want)
			}
		}
		if err != nil {
			e.fail(o, id, fmt.Errorf("output check: %w", err))
		}
		inferred = append(inferred, s.resp.Text)
		truth = append(truth, req.Text)
	}
	return accuracy(inferred, truth)
}
