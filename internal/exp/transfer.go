package exp

import (
	"gpuleak/internal/android"
	"gpuleak/internal/input"
	"gpuleak/internal/stats"
	"gpuleak/internal/victim"
)

// RunTransfer justifies the paper's §3.2 design decision to build "a
// separate classification model for each device model and configuration":
// a classifier trained on one device is applied to every other device.
// On-diagonal accuracy is high; off-diagonal accuracy collapses, because
// per-key deltas depend on resolution, tile alignment and GPU scaling.
func RunTransfer(o Options) (*Result, error) {
	res := newResult("transfer", "§3.2: cross-device model transfer (train row, attack column)",
		"train \\ attack", "Pixel 2", "OnePlus 8 Pro", "OnePlus 9")

	devices := []android.DeviceModel{android.Pixel2, android.OnePlus8Pro, android.OnePlus9}
	per := o.Trials(60)

	cfgs := make([]victim.Config, len(devices))
	for i, dev := range devices {
		cfgs[i] = DefaultConfig()
		cfgs[i].Device = dev
	}
	models, err := trainAll(o, cfgs)
	if err != nil {
		return nil, err
	}

	// One cell per (train, attack) pair of the matrix.
	n := len(devices)
	g := grid{trials: per}
	for ti := range devices {
		for ai := range devices {
			g.cells = append(g.cells, cell{cfg: cfgs[ai], model: models[ti],
				trial: batch(o.Seed+int64(ti)*7753+int64(ai)*131, input.Volunteers[(ti+ai)%5]).derive()})
		}
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}

	var diag, offdiag []float64
	for ti, trainDev := range devices {
		row := []string{trainDev.Name}
		for ai, attackDev := range devices {
			ca := batches[ti*n+ai].CharAccuracy()
			row = append(row, stats.Pct(ca))
			res.Metrics[trainDev.Name+"->"+attackDev.Name] = ca
			if ti == ai {
				diag = append(diag, ca)
			} else {
				offdiag = append(offdiag, ca)
			}
		}
		res.Table.AddRow(row...)
	}
	res.Metrics["diag_mean"] = stats.Mean(diag)
	res.Metrics["offdiag_mean"] = stats.Mean(offdiag)
	return res, nil
}
