package exp

import (
	"fmt"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunAblationDedup sweeps the §5.1 duplication window Ti. The paper picks
// 75 ms (the shortest plausible human inter-key interval); disabling the
// window lets popup-animation duplications double characters, while an
// oversized window swallows genuine fast presses.
func RunAblationDedup(o Options) (*Result, error) {
	res := newResult("ablation-dedup", "Ablation: duplication window Ti",
		"Ti", "text acc", "char acc")

	cfg := DefaultConfig()
	per := o.Trials(120)
	type cfgT struct {
		label string
		opts  attack.OnlineOptions
	}
	cases := []cfgT{
		{"disabled", attack.OnlineOptions{DisableDedup: true}},
		{"25ms", attack.OnlineOptions{DedupWindow: 25 * sim.Millisecond}},
		{"75ms (paper)", attack.OnlineOptions{}},
		{"150ms", attack.OnlineOptions{DedupWindow: 150 * sim.Millisecond}},
	}
	// Fast typists stress the window the most.
	g := grid{trials: per}
	for ci, c := range cases {
		ty := batch(o.Seed+int64(ci)*81799, input.Volunteers[3])
		ty.speed = input.SpeedFast
		g.cells = append(g.cells, cell{cfg: cfg, opts: c.opts, trial: ty.derive()})
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		b := batches[ci]
		res.Table.AddRow(c.label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["text_"+c.label] = b.TextAccuracy()
	}
	return res, nil
}

// RunAblationSplit toggles Algorithm 1's split combining.
func RunAblationSplit(o Options) (*Result, error) {
	res := newResult("ablation-split", "Ablation: split combining (Algorithm 1)",
		"combining", "text acc", "char acc", "splits recovered")

	cfg := DefaultConfig()
	per := o.Trials(120)
	arms := []bool{false, true}
	g := grid{trials: per}
	for ci, disabled := range arms {
		g.cells = append(g.cells, cell{cfg: cfg,
			opts:  attack.OnlineOptions{DisableSplitCombine: disabled},
			trial: batch(o.Seed+int64(ci)*91493, input.Volunteers[0]).derive()})
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}
	for ci, disabled := range arms {
		b := batches[ci]
		label := "on"
		if disabled {
			label = "off"
		}
		res.Table.AddRow(label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()),
			fmt.Sprintf("%d", b.Stats.Splits))
		res.Metrics["text_"+label] = b.TextAccuracy()
		res.Metrics["splits_"+label] = float64(b.Stats.Splits)
	}
	return res, nil
}

// RunAblationThreshold sweeps the classification threshold Cth around the
// offline-derived value. Small thresholds reject perturbed key presses;
// large ones admit noise as keys.
func RunAblationThreshold(o Options) (*Result, error) {
	res := newResult("ablation-threshold", "Ablation: classification threshold Cth",
		"Cth scale", "text acc", "char acc")

	cfg := DefaultConfig()
	base, err := TrainModel(cfg)
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	scales := []float64{0.1, 0.5, 1.0, 3.0, 10.0}
	g := grid{trials: per}
	for si, scale := range scales {
		m := base.Clone()
		m.Cth = base.Cth * scale
		g.cells = append(g.cells, cell{cfg: cfg, model: m,
			trial: batch(o.Seed+int64(si)*10007, input.Volunteers[1]).derive()})
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}
	for si, scale := range scales {
		b := batches[si]
		label := fmt.Sprintf("%.1fx", scale)
		res.Table.AddRow(label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["text_"+label] = b.TextAccuracy()
	}
	return res, nil
}

// RunAblationCounterSet restricts the feature space to a single counter
// group (LRZ, RAS, VPC) versus all 11 counters, quantifying how much each
// group contributes (the paper jointly examines all of Table 1).
func RunAblationCounterSet(o Options) (*Result, error) {
	res := newResult("ablation-counters", "Ablation: counter subsets",
		"counters", "text acc", "char acc")

	cfg := DefaultConfig()
	base, err := TrainModel(cfg)
	if err != nil {
		return nil, err
	}
	per := o.Trials(120)
	masks := []struct {
		label string
		dims  []int
	}{
		{"LRZ only", []int{0, 1, 2, 3}},
		{"RAS only", []int{4, 5, 6, 7}},
		{"VPC only", []int{8, 9, 10}},
		{"all 11", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	g := grid{trials: per}
	for mi, msk := range masks {
		m := base.Clone()
		w := base.Weights
		keep := map[int]bool{}
		for _, d := range msk.dims {
			keep[d] = true
		}
		for i := range w {
			if !keep[i] {
				// A vanishing (but non-zero) weight removes the dimension
				// from distance computation without tripping the
				// zero-means-one fallback.
				w[i] = 1e-12
			}
		}
		m.Weights = w
		g.cells = append(g.cells, cell{cfg: cfg, model: m,
			trial: batch(o.Seed+int64(mi)*11003, input.Volunteers[2]).derive()})
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}
	for mi, msk := range masks {
		b := batches[mi]
		res.Table.AddRow(msk.label, stats.Pct(b.TextAccuracy()), stats.Pct(b.CharAccuracy()))
		res.Metrics["char_"+msk.label] = b.CharAccuracy()
	}
	return res, nil
}

// RunAblationCorrections toggles §5.3 correction tracking on practical
// sessions with backspaces.
func RunAblationCorrections(o Options) (*Result, error) {
	res := newResult("ablation-corrections", "Ablation: §5.3 correction tracking",
		"corrections", "trace acc", "char acc")

	cfg := DefaultConfig()
	per := o.Trials(60)
	opts := input.DefaultPracticalOptions()
	opts.SwitchProb = 0 // isolate corrections
	opts.NotifViewProb = 0
	opts.BackspaceProb = 0.15

	// Paired comparison: both arms replay identical sessions.
	arms := []bool{false, true}
	g := grid{trials: per}
	for _, disabled := range arms {
		g.cells = append(g.cells, cell{cfg: cfg,
			opts: attack.OnlineOptions{DisableCorrections: disabled},
			trial: typing{seed: o.Seed, stride: 517, alphabet: LowerDigits, length: 10,
				vols: input.Volunteers, practical: &opts}.derive()})
	}
	out, err := runEavesdrop(o, g)
	if err != nil {
		return nil, err
	}
	for ci, disabled := range arms {
		var inferred, truths []string
		for _, e := range out[ci*per : (ci+1)*per] {
			inferred = append(inferred, e.res.Text)
			truths = append(truths, e.truth)
		}
		label := "on"
		if disabled {
			label = "off"
		}
		ta := stats.TextAccuracy(inferred, truths)
		res.Table.AddRow(label, stats.Pct(ta), stats.Pct(stats.CharAccuracy(inferred, truths)))
		res.Metrics["trace_"+label] = ta
	}
	return res, nil
}

// RunAblationGreedyVsOffline quantifies the §5.1 accuracy/timeliness
// tradeoff: the streaming (greedy) engine infers keys in real time but
// can pair fragments wrongly; whole-trace segmentation waits until the
// input finishes and reconsiders every grouping.
func RunAblationGreedyVsOffline(o Options) (*Result, error) {
	res := newResult("ablation-greedy", "Ablation: greedy (online) vs whole-trace (offline) segmentation",
		"mode", "text acc", "char acc", "timeliness")

	cfg := DefaultConfig()
	// Stress splits: a slower GPU fragments more frames.
	cfg.Device = android.LGV30
	per := o.Trials(150)

	type pair struct{ truth, online, offline string }
	g := grid{trials: per, cells: []cell{{cfg: cfg,
		trial: typing{textSeed: o.Seed + 777, seed: o.Seed, stride: 919, xor: 0x77,
			alphabet: LowerDigits, length: 10, vols: input.Volunteers}.derive()}}}
	out, err := runGrid(o, g, func(_ int, c *cell, sess *victim.Session, tr *obs.Tracer) (pair, error) {
		f, err := sess.Open()
		if err != nil {
			return pair{}, err
		}
		atk := attack.New(c.model)
		atk.Obs = tr
		t, online, err := atk.Run(o.Context(), f, 0, sess.End, nil)
		if err != nil {
			return pair{}, err
		}
		offline, err := atk.EavesdropTraceOffline(t)
		if err != nil {
			return pair{}, err
		}
		return pair{sess.TypedText(), online.Text, offline.Text}, nil
	})
	if err != nil {
		return nil, err
	}
	var onI, offI, truth []string
	for _, p := range out {
		onI, offI, truth = append(onI, p.online), append(offI, p.offline), append(truth, p.truth)
	}
	res.Table.AddRow("greedy (online)", stats.Pct(stats.TextAccuracy(onI, truth)),
		stats.Pct(stats.CharAccuracy(onI, truth)), "real-time")
	res.Table.AddRow("whole-trace (offline)", stats.Pct(stats.TextAccuracy(offI, truth)),
		stats.Pct(stats.CharAccuracy(offI, truth)), "after input ends")
	res.Metrics["text_online"] = stats.TextAccuracy(onI, truth)
	res.Metrics["text_offline"] = stats.TextAccuracy(offI, truth)
	res.Metrics["char_online"] = stats.CharAccuracy(onI, truth)
	res.Metrics["char_offline"] = stats.CharAccuracy(offI, truth)
	return res, nil
}
