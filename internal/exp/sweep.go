package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/defense"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/proccount"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// The sweep behind the chaos, fusion and arms experiments: one victim
// workload eavesdropped under every cell's read-path stack. Every cell
// derives its trials from the same seed, so trial t types the same text
// on the same victim in every cell and per-cell accuracy differences are
// attributable to the stack, not to sampling.

// sweep describes a grid of stack cells. The flags carry the behaviours
// in which the experiments built on it differ.
type sweep struct {
	// cells set only the stack fields; run fills in the victim and the
	// trial derivation.
	cells           []cell
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
	// track names the grid's telemetry tracks (see grid.track); each
	// trial's track observes its KGSL sampler and inference.
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

// run eavesdrops every (cell, trial) through the grid harness. The
// result is indexed cell*trials + trial.
func (sw sweep) run(o Options) ([]sweepTrial, error) {
	cfg := DefaultConfig()
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

	cells := append([]cell(nil), sw.cells...)
	for ci := range cells {
		ty := batch(o.Seed, input.Volunteers[0])
		ty.length = sw.textLen
		cells[ci].cfg, cells[ci].trial = cfg, ty.derive()
	}
	return runGrid(o, grid{cells: cells, trials: sw.trials, track: sw.track},
		func(i int, c *cell, sess *victim.Session, tr *obs.Tracer) (sweepTrial, error) {
			return sw.once(o, c, sess, sm, pch, sch, i, tr)
		})
}

// once eavesdrops one victim session through one cell's stack: KGSL as
// the primary channel, then, when fusing, proccount under the same
// defense.
func (sw sweep) once(o Options, c *cell, sess *victim.Session, sm *attack.Model,
	pch, sch channel.Channel, i int, tr *obs.Tracer) (sweepTrial, error) {

	ctx := o.Context()
	out := sweepTrial{truth: sess.TypedText(), baselineOK: true}
	var inst defense.Instance
	if c.defense != nil {
		var err error
		if inst, err = c.defense.Arm(sess, c.strength, defense.Seed(o.Seed, i)); err != nil {
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
		a := &attack.Attack{Models: []*attack.Model{m}, Interval: ch.Interval(),
			Errors: ch.Taxonomy(), Retry: st.Retry, Obs: tr}
		t, res, err := a.Run(ctx, st.Probe, 0, sess.End, nil)
		if st.Fault != nil {
			out.injected = st.Fault.Stats
		}
		if err != nil {
			// A failed reservation or sampling loop, or a trace the
			// recognizer rejects: the channel went dark — unless the
			// context died.
			if ctx.Err() != nil {
				return nil, nil, err
			}
			return nil, nil, nil
		}
		return res, t, nil
	}

	var ptr *trace.Trace
	var err error
	if out.kgsl, ptr, err = eavesdrop(pch, c.fault, c.model, tr); err != nil {
		return out, err
	}
	if out.kgsl == nil && !sw.fallback {
		return out, nil
	}
	if sw.reference && c.fault.IsZero() && out.kgsl != nil {
		// Passthrough check: the stacked run must equal the raw legacy run
		// of the same session in every observable.
		raw, err := rawEavesdrop(o, sess, c.model)
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
		fr := attack.Fuse(c.model, ptr.Deltas(), out.kgsl, sm, out.proc, pch.Interval(), attack.FusionOptions{})
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
	return atk.EavesdropStreamContext(o.Context(), f, 0, sess.End, nil)
}

// resultText is a channel's inferred text, empty when it failed.
func resultText(r *attack.Result) string {
	if r == nil {
		return ""
	}
	return r.Text
}
