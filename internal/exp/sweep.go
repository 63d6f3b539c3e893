package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/proccount"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// The sweep harness behind the chaos, fusion and arms experiments: one
// victim workload eavesdropped under every cell of a grid of read-path
// stacks. Trial i types texts[i] on a victim seeded from i alone, so
// every cell replays the same sessions and per-cell accuracy differences
// are attributable to the stack, not to sampling.

// sweepCell is one column of a sweep: the layers defense.Wrap stacks on
// the KGSL probe of every trial in it. The zero cell is the bare device.
type sweepCell struct {
	// fault is the KGSL fault plane (unnamed: none), seeded per trial with
	// fault.Seed(o.Seed, i).
	fault fault.Profile
	// defense is the policy armed on each session (nil: undefended) at
	// strength, seeded per trial with defense.Seed(o.Seed, i).
	defense  defense.Policy
	strength float64
}

// sweep describes a cells × trials run. The flags carry the behaviours
// in which the experiments built on it differ.
type sweep struct {
	cells           []sweepCell
	trials, textLen int
	// fuse also eavesdrops the proccount channel, through the same
	// defense but never a fault plane, and fuses it with KGSL.
	fuse bool
	// retry arms the default retry policy on every probe, even a bare one
	// the stack would leave on the zero policy.
	retry bool
	// fallback lets a trial whose KGSL collection failed go on to the
	// proccount channel; without it such a trial ends there.
	fallback bool
	// reference replays every zero-profile trial on the raw device with
	// the zero retry policy and records whether the results agree.
	reference bool
	// track, when set and o.Obs is non-nil, gives trial i the child tracer
	// "<track>/%04d" on its KGSL sampler and inference.
	track string
}

// sweepTrial is one (cell, trial) outcome; each experiment scores the
// fields it reports.
type sweepTrial struct {
	truth string
	// kgsl and proc are the per-channel results, nil when the channel's
	// collection failed or was not run. kgsl carries the sampler's
	// recovery work in Recovery and Degraded.
	kgsl, proc *attack.Result
	// fused is the decision-level fusion of the surviving channels (the
	// one survivor's text when only one did); recovered and flipped count
	// the fusion rule activations.
	fused              string
	recovered, flipped int
	// injected is what the fault plane injected (zero without one).
	injected fault.InjectedStats
	// baselineOK reports the reference replay agreed (true when none ran).
	baselineOK bool
}

// run trains the models, then eavesdrops every (cell, trial) fanned out
// over o.Workers. The result is indexed cell*trials + trial and is
// bit-identical at any worker count.
func (sw sweep) run(o Options) ([]sweepTrial, error) {
	cfg := DefaultConfig()
	pm, err := TrainModelChannel(cfg, o.Workers, "")
	if err != nil {
		return nil, err
	}
	pch, err := channel.Get(channel.DefaultName)
	if err != nil {
		return nil, err
	}
	var sm *attack.Model
	var sch channel.Channel
	if sw.fuse {
		if sm, err = TrainModelChannel(cfg, o.Workers, proccount.Name); err != nil {
			return nil, err
		}
		if sch, err = channel.Get(proccount.Name); err != nil {
			return nil, err
		}
	}

	rng := sim.NewRand(o.Seed)
	texts := make([]string, sw.trials)
	for i := range texts {
		texts[i] = input.RandomText(rng, LowerDigits, sw.textLen)
	}

	n := len(sw.cells) * sw.trials
	var children []*obs.Tracer
	if sw.track != "" && o.Obs != nil {
		children = make([]*obs.Tracer, n)
		for i := range children {
			children[i] = o.Obs.Child(fmt.Sprintf("%s/%04d", sw.track, i))
		}
	}
	slots := make([]sweepTrial, n)
	err = parallel.ForEachCtx(o.Context(), o.Workers, n, func(i int) error {
		trial := i % sw.trials
		var tr *obs.Tracer
		if children != nil {
			tr = children[i]
		}
		seed := o.Seed + int64(trial)*101
		c := cfg
		c.Seed = seed
		sess := victim.New(c)
		sess.Run(input.Typing(texts[trial], input.Volunteers[0], input.SpeedAny,
			sim.NewRand(seed^0x5DEECE66D), 700*sim.Millisecond))
		t, err := sw.once(o, sw.cells[i/sw.trials], sess, pm, sm, pch, sch, i, tr)
		slots[i] = t
		return err
	})
	if err != nil {
		return nil, err
	}
	return slots, nil
}

// once eavesdrops one victim session through one cell's stack: KGSL as
// the primary channel, then, when fusing, proccount under the same
// defense.
func (sw sweep) once(o Options, cell sweepCell, sess *victim.Session, pm, sm *attack.Model,
	pch, sch channel.Channel, i int, tr *obs.Tracer) (sweepTrial, error) {

	ctx := o.Context()
	out := sweepTrial{truth: sess.TypedText(), baselineOK: true}
	var inst defense.Instance
	if cell.defense != nil {
		var err error
		if inst, err = cell.defense.Arm(sess, cell.strength, defense.Seed(o.Seed, i)); err != nil {
			return out, err
		}
	}

	// eavesdrop samples one channel through its stack and infers over the
	// trace, tr observing both. A nil result with a nil error means the
	// stack beat the retry policy: the channel went dark, which is a
	// result, not an experiment error.
	eavesdrop := func(ch channel.Channel, fp fault.Profile, m *attack.Model, tr *obs.Tracer) (*attack.Result, *trace.Trace, error) {
		p, err := ch.Open(sess)
		if err != nil {
			return nil, nil, err
		}
		st, err := defense.Wrap(ch.Name(), p, fp, fault.Seed(o.Seed, i), inst)
		if err != nil {
			return nil, nil, err
		}
		if sw.retry {
			st.Retry = attack.DefaultRetryPolicy()
		}
		var t *trace.Trace
		smp, err := attack.NewSamplerTaxonomy(st.Probe, ch.Interval(), st.Retry, ch.Taxonomy())
		if err == nil {
			smp.Obs = tr
			t, err = smp.CollectContext(ctx, 0, sess.End)
		}
		if st.Fault != nil {
			out.injected = st.Fault.Stats
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		a := &attack.Attack{Models: []*attack.Model{m}, Interval: ch.Interval(),
			Errors: ch.Taxonomy(), Retry: st.Retry, Obs: tr}
		res, err := a.EavesdropTrace(t)
		if err != nil {
			// A trace the recognizer rejects: the channel went dark too.
			return nil, nil, nil
		}
		res.Recovery = smp.Stats
		res.Degraded = res.Degraded || smp.Stats.Degraded()
		return res, t, nil
	}

	var ptr *trace.Trace
	var err error
	if out.kgsl, ptr, err = eavesdrop(pch, cell.fault, pm, tr); err != nil {
		return out, err
	}
	if out.kgsl == nil && !sw.fallback {
		return out, nil
	}
	if sw.reference && cell.fault.IsZero() && out.kgsl != nil {
		// Passthrough check: the stacked run must equal the raw legacy run
		// of the same session in every observable.
		raw, err := rawEavesdrop(o, sess, pm)
		if err != nil {
			return out, fmt.Errorf("exp: chaos baseline raw run: %w", err)
		}
		res := out.kgsl
		out.baselineOK = res.Text == raw.Text &&
			res.Stats == raw.Stats &&
			len(res.Keys) == len(raw.Keys) &&
			res.EstimatedLength == raw.EstimatedLength &&
			!res.Degraded && !raw.Degraded
	}
	if sw.fuse {
		// Faults model the KGSL ioctl path only: /proc reads never cross it.
		if out.proc, _, err = eavesdrop(sch, fault.Profile{}, sm, nil); err != nil {
			return out, err
		}
	}

	// Decision-level fusion, degrading to whichever channel survived.
	switch {
	case out.kgsl != nil && out.proc != nil:
		fr := attack.Fuse(pm, ptr.Deltas(), out.kgsl, sm, out.proc, pch.Interval(), attack.FusionOptions{})
		out.fused = fr.Fused.Text
		out.recovered = fr.Recovered
		out.flipped = fr.Flipped
	case out.kgsl != nil:
		out.fused = out.kgsl.Text
	case out.proc != nil:
		out.fused = out.proc.Text
	}
	return out, nil
}

// rawEavesdrop replays a session on its raw KGSL device file with the
// zero retry policy: the pre-fault-plane library path.
func rawEavesdrop(o Options, sess *victim.Session, m *attack.Model) (*attack.Result, error) {
	f, err := sess.Open()
	if err != nil {
		return nil, err
	}
	atk := &attack.Attack{Models: []*attack.Model{m}, Interval: attack.DefaultInterval}
	return atk.EavesdropContext(o.Context(), f, 0, sess.End)
}

// resultText is a channel's inferred text, empty when it failed.
func resultText(r *attack.Result) string {
	if r == nil {
		return ""
	}
	return r.Text
}
