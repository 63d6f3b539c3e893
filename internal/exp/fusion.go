package exp

import (
	"fmt"

	"gpuleak/internal/fault"
	"gpuleak/internal/stats"
)

// The fusion experiment quantifies the channel plane's headline claim:
// a coarse OS-counter channel that cannot compete with KGSL on its own
// still buys accuracy when the KGSL sampler is being starved, because
// the two channels fail independently. Each trial eavesdrops one victim
// session three ways — KGSL alone (through a fault plane), proccount
// alone (unwrapped: /proc reads do not cross the KGSL ioctl path the
// profiles model), and decision-level fusion of the two — under every
// predefined fault profile.

// RunFusion is the registry entry point: per fault profile, per-channel
// and fused accuracy. The fusion.win metric is the char-accuracy margin
// of fusion over the best single channel on the starve profile — the
// scenario the channel plane exists for — and CI gates on it staying
// positive.
func RunFusion(o Options) (*Result, error) {
	profiles := fault.Profiles()
	trials := o.Trials(40)
	sw := sweep{trials: trials, textLen: 8, fuse: true}
	for _, p := range profiles {
		sw.cells = append(sw.cells, cell{fault: p})
	}
	slots, err := sw.run(o)
	if err != nil {
		return nil, err
	}

	res := newResult("fusion", "Multi-channel fusion vs single channels under faults",
		"profile", "kgsl char", "proc char", "fused char", "kgsl text", "fused text", "recovered", "flipped")
	var win float64
	for pIdx, p := range profiles {
		var kgsl, proc, fused, truth []string
		recovered, flipped := 0, 0
		for trial := 0; trial < trials; trial++ {
			t := slots[pIdx*trials+trial]
			kgsl = append(kgsl, resultText(t.kgsl))
			proc = append(proc, resultText(t.proc))
			fused = append(fused, t.fused)
			truth = append(truth, t.truth)
			recovered += t.recovered
			flipped += t.flipped
		}
		kc := stats.CharAccuracy(kgsl, truth)
		pc := stats.CharAccuracy(proc, truth)
		fc := stats.CharAccuracy(fused, truth)
		kt := stats.TextAccuracy(kgsl, truth)
		ft := stats.TextAccuracy(fused, truth)
		res.Table.AddRow(p.Name,
			fmt.Sprintf("%.1f%%", 100*kc),
			fmt.Sprintf("%.1f%%", 100*pc),
			fmt.Sprintf("%.1f%%", 100*fc),
			fmt.Sprintf("%.1f%%", 100*kt),
			fmt.Sprintf("%.1f%%", 100*ft),
			fmt.Sprintf("%d", recovered),
			fmt.Sprintf("%d", flipped))
		res.Metrics["fusion.char_acc.kgsl."+p.Name] = kc
		res.Metrics["fusion.char_acc.proccount."+p.Name] = pc
		res.Metrics["fusion.char_acc.fused."+p.Name] = fc
		res.Metrics["fusion.text_acc.kgsl."+p.Name] = kt
		res.Metrics["fusion.text_acc.fused."+p.Name] = ft
		if p.Name == fault.Starve.Name {
			best := kc
			if pc > best {
				best = pc
			}
			win = fc - best
		}
	}
	res.Metrics["fusion.win"] = win
	return res, nil
}
