package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"gpuleak/internal/attack"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order. A traced
// run reports every one; a layer its workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"latency_p99_ms", "ms"},
	{"first_key_p99_ms", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.batch.occupancy", "jobs/flush"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.sse_frames", "frames/session"},
	{"registry.hit_ratio", "ratio"},
	{"registry.evictions", "count"},
	{"victim.build_ms_p50", "ms"},
	{"victim.frames", "frames/op"},
	{"victim.allocs", "allocs/op"},
	{"kgsl.read_ns_p50", "ns"},
	{"kgsl.reads", "reads/op"},
	{"kgsl.allocs_per_read", "allocs/read"},
	{"probe_stack.self_ns_per_read", "ns"},
	{"probe_stack.denied_ratio", "ratio"},
	{"attack.stream.self_ms", "ms"},
	{"attack.retries", "retries/op"},
	{"classify.ns_p50", "ns"},
	{"classify.calls", "calls/op"},
	{"proccount.read_ns_p50", "ns"},
	{"fuse.us_p50", "us"},
	{"collect.ms_p50", "ms"},
	{"collect.allocs", "allocs/op"},
	{"collect.render_states", "count"},
	{"exp.chaos.s", "s"},
	{"exp.arms.s", "s"},
	{"exp.fusion.s", "s"},
	{"exp.fig17.s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// addPerLayer appends every per-layer metric, 0 where l has no value,
// and writes the spans and the metrics to the ledger.
func (e *env) addPerLayer(o *outcome, l map[string]float64, tr *tracer) error {
	for _, m := range perLayer {
		o.add(m.name, l[m.name], m.unit)
	}
	for k := range l {
		if !knownLayer(k) {
			return fmt.Errorf("per-layer metric %q is not in the per-layer list", k)
		}
	}
	if tr != nil {
		e.led.record("accounting", accounting(tr.spans))
		e.led.spans(tr.spans)
	}
	e.led.metrics(o.metrics)
	return nil
}

func knownLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// accounting summarizes how completely the layer spans cover each
// replayed op: the summed self times of an op's spans equal its root
// span, and the root's own self time is the share no layer span claims.
func accounting(ss []span) map[string]any {
	lt := aggregate(ss)
	var unclaimed []float64
	rootSelf := map[int]float64{}
	for name, byOp := range lt.opSelf {
		if name == "replay" || name == "pass" {
			for op, v := range byOp {
				rootSelf[op] += v
			}
		}
	}
	var worst float64
	for op, root := range lt.rootDur {
		unclaimed = append(unclaimed, ratio(rootSelf[op], root))
		worst = max(worst, abs(lt.opSums[op]-root))
	}
	sort.Float64s(unclaimed)
	return map[string]any{
		"ops":                     len(lt.rootDur),
		"unclaimed_share_p50":     median(unclaimed),
		"self_sum_minus_root_max": worst,
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// windowLayers fills the metrics of the timed window: its p99 tails, and
// the counters read from /metrics (0 without a fleet). The tails are
// reported here rather than as end-to-end metrics because on a shared
// 2 vCPU host their run-to-run spread exceeds any usable bound.
func windowLayers(l map[string]float64, w window) {
	l["latency_p99_ms"], _, l["first_key_p99_ms"], _ = w.tails()
	d := func(k string) float64 { return counterDelta(w.before, w.after, k) }
	l["serve.batch.occupancy"] = ratio(d("serve.batch.jobs"), d("serve.batch.flushes"))
	l["serve.rejected_ratio"] = ratio(d("serve.rejected"), float64(len(w.samples)))
	l["registry.hit_ratio"] = ratio(d("registry.hits"), d("registry.hits")+d("registry.misses"))
	l["registry.evictions"] = d("registry.evictions")
}

// tracedOp is one sampled op run three ways: over HTTP one at a time, on
// the untraced library path, and on the traced library path.
type tracedOp struct {
	op       int
	httpWall time.Duration
	refWall  time.Duration
	out      replayOut
}

// replayLayers fills the layer metrics of traced eavesdrop replays. With
// serveSelf, these ops are the workload's own and also give the serving
// layer's self time and the tracing overhead.
func replayLayers(l map[string]float64, tr *tracer, ops []tracedOp, serveSelf bool) {
	lt := aggregate(tr.spans)
	var ids []int
	var frames, reads, classify, retries, serveSelfs, refs, roots []float64
	var stackReads, stackErrs float64
	for _, t := range ops {
		ids = append(ids, t.op)
		frames = append(frames, float64(t.out.gpuFrames))
		classify = append(classify, float64(t.out.classify))
		if t.out.kgsl != nil {
			reads = append(reads, float64(t.out.kgsl.reads))
		}
		if t.out.stack != nil {
			stackReads += float64(t.out.stack.reads)
			stackErrs += float64(t.out.stack.errs)
		}
		r := 0
		if rec := t.out.resp.Recovery; rec != nil {
			r = rec.Retries
		}
		retries = append(retries, float64(r))
		root := lt.rootDur[t.op]
		roots = append(roots, root)
		refs = append(refs, float64(t.refWall))
		serveSelfs = append(serveSelfs, float64(t.httpWall)-root)
	}
	l["victim.build_ms_p50"] = median(lt.dur["victim.build"]) / 1e6
	l["victim.frames"] = mean(frames)
	l["kgsl.read_ns_p50"] = median(lt.dur["kgsl.read"])
	l["kgsl.reads"] = mean(reads)
	l["probe_stack.self_ns_per_read"] = mean(lt.self["probe_stack.read"])
	l["probe_stack.denied_ratio"] = ratio(stackErrs, stackReads)
	l["attack.stream.self_ms"] = median(lt.perOp("attack.stream", ids)) / 1e6
	l["attack.retries"] = mean(retries)
	l["classify.ns_p50"] = median(lt.dur["classify"])
	l["classify.calls"] = mean(classify)
	l["proccount.read_ns_p50"] = median(lt.dur["proccount.read"])
	l["fuse.us_p50"] = median(lt.dur["fuse"]) / 1e3
	if serveSelf {
		l["serve.self_ms_p50"] = median(serveSelfs) / 1e6
		l["trace.overhead_ratio"] = ratio(median(roots), median(refs))
	}
}

// allocLayers counts allocations outside any timed span: per victim
// build, and per KGSL read in a loop over the built session at the
// sampler's cadence.
func allocLayers(l map[string]float64, reqs []serve.EavesdropRequest) error {
	var build, readAllocs, reads float64
	var m0, m1 runtime.MemStats
	for _, req := range reqs {
		scen, err := serve.ResolveScenario(req)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		sess := victim.New(scen.Cfg)
		sess.Run(scen.Script())
		runtime.ReadMemStats(&m1)
		build += float64(m1.Mallocs - m0.Mallocs)
		f, err := sess.Open()
		if err != nil {
			return fmt.Errorf("opening device file: %w", err)
		}
		if err := f.ReserveSelected(0); err != nil {
			return fmt.Errorf("reserving counters: %w", err)
		}
		runtime.ReadMemStats(&m0)
		n := 0
		for t := sim.Time(0); t <= sess.End; t += attack.DefaultInterval {
			if _, err := f.ReadSelected(t); err != nil {
				return fmt.Errorf("reading counters: %w", err)
			}
			n++
		}
		runtime.ReadMemStats(&m1)
		readAllocs += float64(m1.Mallocs - m0.Mallocs)
		reads += float64(n)
	}
	l["victim.allocs"] = ratio(build, float64(len(reqs)))
	l["kgsl.allocs_per_read"] = ratio(readAllocs, reads)
	return nil
}
