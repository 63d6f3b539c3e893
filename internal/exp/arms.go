package exp

import (
	"fmt"

	"gpuleak/internal/defense"
	"gpuleak/internal/stats"
)

// The arms experiment runs the attack-vs-defense tournament: every
// registered defense, swept over strength levels, against the attack at
// full power — retry/resync machinery armed on both channels plus
// decision-level kgsl+proccount fusion. Each (defense, strength) cell
// replays the same victim sessions as the undefended baseline, so the
// frontier reports paired accuracy drops, not sampling noise. The
// deliverable is the accuracy-vs-overhead frontier (gpuleak-arms/v1):
// which defenses buy how much attacker degradation at what platform
// cost.

// ArmsSchema identifies the tournament report's wire format.
const ArmsSchema = "gpuleak-arms/v1"

// ArmsReport is the gpuleak-arms/v1 JSON document cmd/arms emits: the
// tournament inputs, the undefended fused baseline, and one frontier
// point per (defense, strength). For a fixed seed the report is
// bit-identical at any worker count.
type ArmsReport struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Trials  int    `json:"trials"`
	TextLen int    `json:"text_len"`
	// Strengths is the sweep grid every defense was evaluated on.
	Strengths []float64 `json:"strengths"`
	// Baseline is the undefended fused attack on the same sessions
	// (strength 0, overhead 0) — the frontier's origin.
	Baseline ArmsPoint `json:"baseline"`
	// Defenses holds one frontier row per defense, in requested order.
	Defenses []ArmsDefenseResult `json:"defenses"`
}

// ArmsDefenseResult is one defense's row of the frontier.
type ArmsDefenseResult struct {
	// Defense is the registry name ("quantize", or a "+"-joined chain).
	Defense string `json:"defense"`
	// Doc is the defense's one-line mechanism description.
	Doc string `json:"doc"`
	// Channels is the defense's applicability set.
	Channels []string `json:"channels"`
	// Points are the sweep results, one per strength in report order.
	Points []ArmsPoint `json:"points"`
}

// ArmsPoint is one (defense, strength) cell of the tournament.
type ArmsPoint struct {
	// Strength is the defense knob in [0, 1]; 0 marks the baseline.
	Strength float64 `json:"strength"`
	// Overhead is the defense's reported platform cost estimate.
	Overhead float64 `json:"overhead"`
	// CharAcc and TextAcc score the fused attacker against ground truth.
	CharAcc float64 `json:"char_acc"`
	TextAcc float64 `json:"text_acc"`
	// KGSLCharAcc and ProcCharAcc score the single channels before
	// fusion, locating which channel the defense actually hurt.
	KGSLCharAcc float64 `json:"kgsl_char_acc"`
	ProcCharAcc float64 `json:"proc_char_acc"`
	// Drop is the fused char-accuracy reduction vs the baseline — the
	// frontier's y-axis.
	Drop float64 `json:"drop"`
	// Blocked counts trials whose KGSL collection failed outright (the
	// defense cost availability, not just accuracy); the fused attacker
	// falls back to the surviving channel in those trials.
	Blocked int `json:"blocked,omitempty"`
	// Degraded counts trials where the sampler's recovery machinery
	// fired; Recovered and Flipped total the fusion rule activations.
	Degraded  int `json:"degraded,omitempty"`
	Recovered int `json:"recovered,omitempty"`
	Flipped   int `json:"flipped,omitempty"`
}

// RunArmsTournament sweeps the named defenses over the strength grid,
// trials victim sessions per cell plus the shared undefended baseline,
// fanned out over o.Workers. Every session, credential and defense seed
// derives from the cell and trial indices, so the report is
// bit-identical at any worker count.
func RunArmsTournament(o Options, names []string, strengths []float64, trials, textLen int) (*ArmsReport, error) {
	if len(names) == 0 {
		names = defense.Names()
	}
	if len(strengths) == 0 {
		strengths = []float64{0.25, 0.5, 1}
	}
	pols := make([]defense.Policy, len(names))
	for i, name := range names {
		p, err := defense.Get(name)
		if err != nil {
			return nil, err
		}
		pols[i] = p
	}

	// Cells: the shared undefended baseline first, then one per (defense,
	// strength). Victim seeds depend only on the trial index, so every
	// cell replays the same sessions as the baseline. The attacker runs
	// at full power everywhere — retry policy armed even on the baseline
	// — and a blocked KGSL channel degrades to proccount.
	sw := sweep{cells: []cell{{}}, trials: trials, textLen: textLen,
		fuse: true, retry: true, fallback: true, track: "arms"}
	for _, pol := range pols {
		for _, s := range strengths {
			sw.cells = append(sw.cells, cell{defense: pol, strength: s})
		}
	}
	slots, err := sw.run(o)
	if err != nil {
		return nil, err
	}

	score := func(block int, strength, overhead, baseChar float64) ArmsPoint {
		var kgsl, proc, fused, truth []string
		pt := ArmsPoint{Strength: strength, Overhead: overhead}
		for trial := 0; trial < trials; trial++ {
			t := slots[block*trials+trial]
			kgsl = append(kgsl, resultText(t.kgsl))
			proc = append(proc, resultText(t.proc))
			fused = append(fused, t.fused)
			truth = append(truth, t.truth)
			if t.kgsl == nil {
				pt.Blocked++
			} else if t.kgsl.Recovery.Degraded() {
				pt.Degraded++
			}
			pt.Recovered += t.recovered
			pt.Flipped += t.flipped
		}
		pt.CharAcc = stats.CharAccuracy(fused, truth)
		pt.TextAcc = stats.TextAccuracy(fused, truth)
		pt.KGSLCharAcc = stats.CharAccuracy(kgsl, truth)
		pt.ProcCharAcc = stats.CharAccuracy(proc, truth)
		pt.Drop = baseChar - pt.CharAcc
		return pt
	}

	rep := &ArmsReport{
		Schema: ArmsSchema, Seed: o.Seed, Trials: trials, TextLen: textLen,
		Strengths: append([]float64(nil), strengths...),
	}
	rep.Baseline = score(0, 0, 0, 0)
	rep.Baseline.Drop = 0
	for di, pol := range pols {
		row := ArmsDefenseResult{
			Defense:  pol.Name(),
			Doc:      pol.Doc(),
			Channels: pol.Channels(),
		}
		for si, s := range strengths {
			block := 1 + di*len(strengths) + si
			row.Points = append(row.Points, score(block, s, pol.Overhead(s), rep.Baseline.CharAcc))
		}
		rep.Defenses = append(rep.Defenses, row)
	}
	return rep, nil
}

// RunArms is the registry entry point: the quick-scale tournament over
// every registered defense. The arms.best_drop metric is the largest
// fused char-accuracy reduction bought at ≤ 10% reported overhead — the
// headline the CI arms smoke gates on through cmd/arms -check.
func RunArms(o Options) (*Result, error) {
	rep, err := RunArmsTournament(o, nil, nil, o.Trials(30), 8)
	if err != nil {
		return nil, err
	}
	res := newResult("arms", "Attack-vs-defense tournament: accuracy-vs-overhead frontier",
		"defense", "strength", "overhead", "fused char", "kgsl char", "proc char", "drop", "blocked")
	res.Table.AddRow("(baseline)", "0", "0",
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.CharAcc),
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.KGSLCharAcc),
		fmt.Sprintf("%.1f%%", 100*rep.Baseline.ProcCharAcc),
		"", fmt.Sprintf("%d", rep.Baseline.Blocked))
	res.Metrics["arms.char_acc.baseline"] = rep.Baseline.CharAcc
	best := 0.0
	for _, d := range rep.Defenses {
		for _, pt := range d.Points {
			res.Table.AddRow(d.Defense,
				fmt.Sprintf("%g", pt.Strength),
				fmt.Sprintf("%.3f", pt.Overhead),
				fmt.Sprintf("%.1f%%", 100*pt.CharAcc),
				fmt.Sprintf("%.1f%%", 100*pt.KGSLCharAcc),
				fmt.Sprintf("%.1f%%", 100*pt.ProcCharAcc),
				fmt.Sprintf("%+.1f%%", -100*pt.Drop),
				fmt.Sprintf("%d", pt.Blocked))
			res.Metrics[fmt.Sprintf("arms.char_acc.%s.%g", d.Defense, pt.Strength)] = pt.CharAcc
			if pt.Overhead <= 0.10 && pt.Drop > best {
				best = pt.Drop
			}
		}
	}
	res.Metrics["arms.best_drop"] = best
	return res, nil
}
