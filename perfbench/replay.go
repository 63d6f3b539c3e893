package main

import (
	"context"
	"fmt"

	"gpuleak/internal/adreno"
	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// replayer runs operations through the library path, calling the layers'
// public functions in the order serve.runEavesdrop and
// serve.fuseEavesdrop call them. With a tracer it also records a span
// around each call, timed from outside the layer; without one it makes
// exactly the calls the server makes and nothing else. Its answers are
// the reference the served outputs are checked against.
type replayer struct {
	models map[string]*attack.Model
	tr     *tracer
}

func newReplayer() *replayer { return &replayer{models: map[string]*attack.Model{}} }

// model trains, once per replayer, the classifier the server's registry
// trains for cfg on channel ch (canonical form, "" for KGSL).
func (r *replayer) model(cfg victim.Config, ch string) (*attack.Model, error) {
	tc := serve.TrainConfig(cfg)
	key := serve.ChannelKey(tc, ch)
	if m, ok := r.models[key]; ok {
		return m, nil
	}
	m, err := attack.CollectContext(context.Background(), tc, attack.CollectOptions{Repeats: 2, Channel: ch})
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", key, err)
	}
	r.models[key] = m
	return m, nil
}

// replayOut is one replayed eavesdrop: the response and SSE key/retract
// frames the server should have sent, plus per-op layer counts.
type replayOut struct {
	resp      serve.EavesdropResponse
	events    []serve.StreamEventData
	gpuFrames int
	kgsl      *timedProbe // nil when untraced
	stack     *timedProbe // nil unless a fault or defense wrapped the probe
	classify  int
}

// eavesdrop replays one /v1/eavesdrop or session request.
func (r *replayer) eavesdrop(req serve.EavesdropRequest) (replayOut, error) {
	var out replayOut
	scen, err := serve.ResolveScenario(req)
	if err != nil {
		return out, err
	}
	pm, err := r.model(scen.Cfg, scen.Primary())
	if err != nil {
		return out, err
	}
	ctx := context.Background()
	r.tr.begin("victim.build")
	sess := victim.New(scen.Cfg)
	sess.Run(scen.Script())
	r.tr.end()
	out.gpuFrames = sess.GPU.FrameCount()
	var inst defense.Instance
	if scen.Defense != nil {
		r.tr.begin("defense.arm")
		inst, err = scen.Defense.Arm(sess, scen.DefenseStrength, scen.DefenseSeed)
		r.tr.end()
		if err != nil {
			return out, err
		}
	}
	var res *attack.Result
	var fr *attack.FusionResult
	switch {
	case len(scen.Channels) >= 2:
		fr, err = r.fuse(ctx, scen, pm, sess, inst, &out)
		if err != nil {
			return out, err
		}
		res = fr.Fused
	case scen.Primary() != "":
		return out, fmt.Errorf("single non-default channel %q is not a benchmark operation", scen.Primary())
	default:
		f, err := sess.Open()
		if err != nil {
			return out, fmt.Errorf("opening device file: %w", err)
		}
		atk := attack.New(pm)
		r.hookClassify(atk, &out)
		var dev fault.Device = f
		if r.tr != nil {
			out.kgsl = &timedProbe{p: f, dev: f, tr: r.tr, name: "kgsl"}
			dev = (*timedDevice)(out.kgsl)
		}
		var df attack.DeviceFile = dev
		if scen.Fault.Name != "" {
			df = fault.NewFile(dev, scen.Fault, scen.FaultSeed)
			atk.Retry = attack.DefaultRetryPolicy()
		}
		var probe attack.Probe = df
		if inst != nil {
			probe = inst.WrapProbe(channel.DefaultName, df)
			atk.Retry = attack.DefaultRetryPolicy()
		}
		probe = r.stack(probe, scen.Fault.Name != "" || inst != nil, &out)
		seq := uint64(1) // the stream's "open" frame is frame 1
		r.tr.begin("attack.stream")
		res, err = atk.EavesdropStreamContext(ctx, probe, 0, sess.End, func(ev attack.StreamEvent) error {
			seq++
			out.events = append(out.events, eventData(seq, ev))
			return nil
		})
		r.tr.end()
		if err != nil {
			return out, err
		}
	}
	out.resp = serve.EavesdropResponse{
		Schema:          serve.Schema,
		Model:           res.Model.String(),
		Text:            res.Text,
		Truth:           sess.TypedText(),
		Keys:            len(res.Keys),
		EstimatedLength: res.EstimatedLength,
		Stats:           res.Stats,
		Degraded:        res.Degraded,
		Channel:         scen.Primary(),
	}
	if res.Degraded {
		rec := res.Recovery
		out.resp.Recovery = &rec
	}
	if fr != nil {
		out.resp.Fusion = &serve.FusionInfo{
			Channels:      append([]string(nil), scen.Channels...),
			PrimaryText:   fr.Primary.Text,
			SecondaryText: fr.Secondary.Text,
			Recovered:     fr.Recovered,
			Flipped:       fr.Flipped,
		}
	}
	return out, nil
}

// fuse mirrors serve.fuseEavesdrop: sample and infer per channel, then
// merge with attack.Fuse.
func (r *replayer) fuse(ctx context.Context, scen serve.Scenario, pm *attack.Model, sess *victim.Session, inst defense.Instance, out *replayOut) (*attack.FusionResult, error) {
	secName := channel.Canonical(scen.Channels[1])
	sm, err := r.model(scen.Cfg, secName)
	if err != nil {
		return nil, err
	}
	pch, err := channel.Get(scen.Channels[0])
	if err != nil {
		return nil, err
	}
	sch, err := channel.Get(scen.Channels[1])
	if err != nil {
		return nil, err
	}

	pprobe, err := pch.Open(sess)
	if err != nil {
		return nil, fmt.Errorf("opening channel %q: %w", pch.Name(), err)
	}
	if r.tr != nil {
		dev, _ := pprobe.(fault.Device)
		out.kgsl = &timedProbe{p: pprobe, dev: dev, tr: r.tr, name: "kgsl"}
		pprobe = (*timedDevice)(out.kgsl)
	}
	retry := attack.RetryPolicy{}
	if scen.Fault.Name != "" {
		dev, ok := pprobe.(fault.Device)
		if !ok || (out.kgsl != nil && out.kgsl.dev == nil) {
			return nil, fmt.Errorf("channel %q cannot carry a fault profile", pch.Name())
		}
		pprobe = fault.NewFile(dev, scen.Fault, scen.FaultSeed)
		retry = attack.DefaultRetryPolicy()
	}
	if inst != nil {
		pprobe = inst.WrapProbe(pch.Name(), pprobe)
		retry = attack.DefaultRetryPolicy()
	}
	pprobe = r.stack(pprobe, scen.Fault.Name != "" || inst != nil, out)
	pa := &attack.Attack{Models: []*attack.Model{pm}, Interval: pch.Interval(), Errors: pch.Taxonomy(), Retry: retry}
	r.hookClassify(pa, out)
	ps, err := attack.NewSamplerTaxonomy(pprobe, pch.Interval(), retry, pch.Taxonomy())
	if err != nil {
		return nil, err
	}
	r.tr.begin("sampler.collect")
	ptr, err := ps.CollectContext(ctx, 0, sess.End)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("attack.infer")
	pres, err := pa.EavesdropTrace(ptr)
	r.tr.end()
	if err != nil {
		return nil, err
	}

	sprobe, err := sch.Open(sess)
	if err != nil {
		return nil, fmt.Errorf("opening channel %q: %w", sch.Name(), err)
	}
	if r.tr != nil {
		sprobe = &timedProbe{p: sprobe, tr: r.tr, name: "proccount"}
	}
	sretry := attack.RetryPolicy{}
	if inst != nil {
		sprobe = inst.WrapProbe(sch.Name(), sprobe)
		sretry = attack.DefaultRetryPolicy()
	}
	sa := &attack.Attack{Models: []*attack.Model{sm}, Interval: sch.Interval(), Errors: sch.Taxonomy(), Retry: sretry}
	r.hookClassify(sa, out)
	ss, err := attack.NewSamplerTaxonomy(sprobe, sch.Interval(), sretry, sch.Taxonomy())
	if err != nil {
		return nil, err
	}
	r.tr.begin("sampler.collect")
	str, err := ss.CollectContext(ctx, 0, sess.End)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("attack.infer")
	sres, err := sa.EavesdropTrace(str)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("fuse")
	fr := attack.Fuse(pm, ptr.Deltas(), pres, sm, sres, pch.Interval(), attack.FusionOptions{})
	r.tr.end()
	return fr, nil
}

// hookClassify times each classification through the Attack.Classify
// hook, which must agree with the engine's default ClassifyDenoised.
func (r *replayer) hookClassify(a *attack.Attack, out *replayOut) {
	if r.tr == nil {
		return
	}
	a.Classify = func(m *attack.Model, _ sim.Time, v trace.Vec) attack.Verdict {
		r.tr.begin("classify")
		verdict := m.ClassifyDenoised(v)
		r.tr.end()
		out.classify++
		return verdict
	}
}

// stack puts the outer timing wrapper around a fault/defense probe stack,
// so the stack's own cost is the outer span minus the device read inside.
func (r *replayer) stack(p attack.Probe, wrapped bool, out *replayOut) attack.Probe {
	if r.tr == nil || !wrapped {
		return p
	}
	out.stack = &timedProbe{p: p, tr: r.tr, name: "probe_stack"}
	return (*timedStack)(out.stack)
}

// train replays one /v1/train miss: the server's offline collection, with
// a render cache the benchmark supplies so its size can be read back.
func (r *replayer) train(cfg victim.Config) (m *attack.Model, renderStates int, err error) {
	tc := serve.TrainConfig(cfg)
	rc := android.NewStatsCache()
	tc.RenderCache = rc
	r.tr.begin("collect")
	m, err = attack.CollectContext(context.Background(), tc, attack.CollectOptions{Repeats: 2})
	r.tr.end()
	if err != nil {
		return nil, 0, fmt.Errorf("collecting %s: %w", serve.ChannelKey(serve.TrainConfig(cfg), ""), err)
	}
	return m, rc.Len(), nil
}

// eventData is the SSE payload serve writes for one engine event.
func eventData(seq uint64, ev attack.StreamEvent) serve.StreamEventData {
	d := serve.StreamEventData{Schema: serve.StreamSchema, Seq: seq, AtUS: int64(ev.At), Kind: ev.Kind, Keys: ev.Keys}
	if ev.Kind == "key" {
		d.Key = string(ev.Key.R)
		if ev.Key.Alt != 0 {
			d.Alt = string(ev.Key.Alt)
		}
		d.Margin = ev.Key.Margin
	}
	return d
}

// timedProbe records a "<name>.read" span around every counter read and a
// "<name>.reserve" span around every reservation, and counts reads and
// failed reads.
type timedProbe struct {
	p     attack.Probe
	dev   fault.Device // p's ioctl surface, when it has one
	tr    *tracer
	name  string
	reads int
	errs  int
}

func (w *timedProbe) ReserveSelected(t sim.Time) error {
	w.tr.begin(w.name + ".reserve")
	err := w.p.ReserveSelected(t)
	w.tr.end()
	return err
}

func (w *timedProbe) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	w.tr.begin(w.name + ".read")
	v, err := w.p.ReadSelected(t)
	w.tr.end()
	w.reads++
	if err != nil {
		w.errs++
	}
	return v, err
}

// timedDevice is a timedProbe over a KGSL device file, which a fault plane
// can wrap (it needs the raw ioctl entry point).
type timedDevice timedProbe

func (w *timedDevice) ReserveSelected(t sim.Time) error { return (*timedProbe)(w).ReserveSelected(t) }

func (w *timedDevice) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	return (*timedProbe)(w).ReadSelected(t)
}

func (w *timedDevice) Ioctl(t sim.Time, request uint32, arg any) error {
	w.tr.begin(w.name + ".ioctl")
	err := w.dev.Ioctl(t, request, arg)
	w.tr.end()
	return err
}

// timedStack is a timedProbe at the top of a wrapped probe stack. It
// forwards the tick-fault schedule the way the defense wrappers do, so
// the sampler sees the stack's clock perturbations unchanged.
type timedStack timedProbe

func (w *timedStack) ReserveSelected(t sim.Time) error { return (*timedProbe)(w).ReserveSelected(t) }

func (w *timedStack) ReadSelected(t sim.Time) ([adreno.NumSelected]uint64, error) {
	return (*timedProbe)(w).ReadSelected(t)
}

func (w *timedStack) TickFault(tick int, t sim.Time) (sim.Time, bool) {
	if tf, ok := w.p.(attack.TickFaults); ok {
		return tf.TickFault(tick, t)
	}
	return 0, false
}
