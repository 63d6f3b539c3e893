package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/defense"
	"gpuleak/internal/input"
	"gpuleak/internal/obs"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunSec9Defenses reproduces the paper's §9 defense discussion as one
// matrix: each defense's effect on credential recovery, the residual
// input-length leak the paper highlights for popup disabling (§9.1), and
// the GPU cost of the §9.3 obfuscation amplitudes.
func RunSec9Defenses(o Options) (*Result, error) {
	res := newResult("sec9", "§9: defense matrix",
		"defense", "text acc", "char acc", "length leak", "note")

	base := DefaultConfig()
	m, err := TrainModel(base)
	if err != nil {
		return nil, err
	}
	per := o.Trials(80)

	// One cell per defense row. Every row types the same sessions; a
	// countermeasure that acts on the device is armed after the victim
	// typed, before the attacker opens it.
	type row struct {
		label, note string
		cfg         victim.Config
		defend      func(*victim.Session)
		amp         float64 // obfuscation amplitude (0: none)
	}
	popups, autofill := base, base
	popups.DisablePopups = true
	autofill.Autofill = true
	rows := []row{
		{label: "none", cfg: base},
		// §9.1 popup disabling: credentials protected, length still leaks.
		{label: "popups disabled", note: "length still leaks (§9.1)", cfg: popups},
		// §9.3 password manager / autofill: one fill frame.
		{label: "autofill", note: "first-time entry still typed", cfg: autofill},
		// §9.2 RBAC via the SELinux ioctl whitelist (the shipped fix).
		{label: "SELinux ioctl whitelist", note: "PERFCOUNTER_READ denied", cfg: base,
			defend: func(s *victim.Session) { s.Device.SetPolicy(defense.NewGooglePatchPolicy()) }},
	}
	// §9.3 obfuscation sweep: accuracy falls as amplitude (and GPU cost)
	// rises — the paper's open tuning question.
	for _, amp := range []float64{0.0005, 0.002, 0.01} {
		obf := &defense.NoiseObfuscator{Amplitude: amp, Seed: 31}
		rows = append(rows, row{label: fmt.Sprintf("obfuscation x%.4f", amp),
			note: fmt.Sprintf("GPU cost ~%.2f%%", 100*obf.GPUCostFraction()), cfg: base, amp: amp,
			defend: func(s *victim.Session) { s.Device.SetObfuscator(obf) }})
	}
	g := grid{trials: per}
	for _, rw := range rows {
		g.cells = append(g.cells, cell{cfg: rw.cfg, model: m,
			trial: typing{textSeed: o.Seed + 9, seed: o.Seed, stride: 271, xor: 0x9,
				alphabet: LowerDigits, length: 8, span: 6, vols: input.Volunteers}.derive()})
	}
	ctx := o.Context()
	out, err := runGrid(o, g, func(i int, c *cell, sess *victim.Session, tr *obs.Tracer) (eavesdropped, error) {
		if defend := rows[i/per].defend; defend != nil {
			defend(sess)
		}
		r, err := c.eavesdrop(ctx, sess, tr)
		if err != nil && ctx.Err() != nil {
			return eavesdropped{}, err
		}
		// Any other failure is the defense blocking the attacker: a nil
		// result, not an experiment error.
		return eavesdropped{truth: sess.TypedText(), res: r}, nil
	})
	if err != nil {
		return nil, err
	}

	for ri, rw := range rows {
		var inferred, truths []string
		lenHits, blocked := 0, false
		for _, e := range out[ri*per : (ri+1)*per] {
			if e.res == nil {
				blocked = true
				break
			}
			inferred = append(inferred, e.res.Text)
			truths = append(truths, e.truth)
			if e.res.EstimatedLength == len([]rune(e.truth)) {
				lenHits++
			}
		}
		text := 0.0
		if blocked {
			res.Table.AddRow(rw.label, "blocked", "blocked", "blocked", rw.note)
			res.Metrics["blocked_"+rw.label] = 1
		} else {
			text = stats.TextAccuracy(inferred, truths)
			lengthLeak := float64(lenHits) / float64(per)
			res.Table.AddRow(rw.label, stats.Pct(text), stats.Pct(stats.CharAccuracy(inferred, truths)),
				stats.Pct(lengthLeak), rw.note)
			res.Metrics["length_"+rw.label] = lengthLeak
		}
		res.Metrics["text_"+rw.label] = text
		if rw.amp > 0 {
			res.Metrics[fmt.Sprintf("obf_%.4f_text", rw.amp)] = text
		}
	}

	// §9.1 malware detection: the attack's ioctl rate vs a normal GL
	// client's. The paper: thousands of calls per second are normal, so
	// the attack's ~125/s polling is unremarkable.
	attackRate := float64(sim.Second) / float64(attack.DefaultInterval)
	const normalDriverRate = 3000.0 // §9.1: "thousands of invocations per second"
	res.Table.AddRow("malware detection (§9.1)", "-", "-", "-",
		fmt.Sprintf("attack %d ioctl/s vs ~%d/s from a normal GL driver", int(attackRate), int(normalDriverRate)))
	res.Metrics["attack_ioctl_rate"] = attackRate
	res.Metrics["normal_ioctl_rate"] = normalDriverRate
	return res, nil
}
