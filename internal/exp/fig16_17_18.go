package exp

import (
	"fmt"

	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/stats"
)

// RunFig16 reproduces Figure 16: key press durations and inter-key
// intervals of the five volunteers, showing the heterogeneity the
// experiments replay.
func RunFig16(o Options) (*Result, error) {
	res := newResult("fig16", "Figure 16: volunteer key press durations and intervals",
		"volunteer", "dur mean (s)", "dur std", "interval mean (s)", "interval std")

	n := o.Trials(2000)
	rng := sim.NewRand(o.Seed + 16)
	var meansLo, meansHi float64
	for i, v := range input.Volunteers {
		durs := make([]float64, n)
		ints := make([]float64, n)
		for j := 0; j < n; j++ {
			durs[j] = v.SampleDuration(rng).Seconds()
			ints[j] = v.SampleInterval(rng).Seconds()
		}
		dm, ds := stats.Mean(durs), stats.Std(durs)
		im, is := stats.Mean(ints), stats.Std(ints)
		res.Table.AddRow(v.Name, stats.Fmt(dm), stats.Fmt(ds), stats.Fmt(im), stats.Fmt(is))
		res.Metrics["dur_mean_"+v.Name] = dm
		res.Metrics["int_mean_"+v.Name] = im
		if i == 0 || im < meansLo {
			meansLo = im
		}
		if im > meansHi {
			meansHi = im
		}
	}
	res.Metrics["interval_spread_ratio"] = meansHi / meansLo
	return res, nil
}

// RunFig17 reproduces Figure 17: text-input accuracy vs credential length
// (a), mean wrong key presses per text (b), and per-character-group
// accuracy (c). Paper: text accuracy always >75%, average 81.3%; most
// texts have at most one wrong key; per-key accuracy 98.3%; symbols are
// the weakest group.
func RunFig17(o Options) (*Result, error) {
	res := newResult("fig17", "Figure 17: accuracy of inferring user text inputs (Chase, OnePlus 8 Pro, GBoard)",
		"length", "text acc", "char acc", "mean errors")

	cfg := DefaultConfig()
	perLength := o.Trials(300)
	lengths := []int{8, 9, 10, 11, 12, 13, 14, 15, 16}
	if o.Quick {
		lengths = []int{8, 12, 16}
	}

	g := grid{trials: perLength}
	for li, L := range lengths {
		ty := batch(o.Seed+int64(L)*7919, input.Volunteers[li%5])
		ty.alphabet, ty.length = CredAlphabet, L
		g.cells = append(g.cells, cell{cfg: cfg, trial: ty.derive()})
	}
	batches, err := runBatches(o, g)
	if err != nil {
		return nil, err
	}
	all := &BatchResult{}
	var textAccs []float64
	for li, L := range lengths {
		b := batches[li]
		ta, ca, me := b.TextAccuracy(), b.CharAccuracy(), b.MeanErrors()
		res.Table.AddRow(fmt.Sprintf("%d", L), stats.Pct(ta), stats.Pct(ca), stats.Fmt(me))
		res.Metrics[fmt.Sprintf("text_acc_len%d", L)] = ta
		textAccs = append(textAccs, ta)
		all.Inferred = append(all.Inferred, b.Inferred...)
		all.Truth = append(all.Truth, b.Truth...)
	}
	res.Table.AddRow("all", stats.Pct(all.TextAccuracy()), stats.Pct(all.CharAccuracy()), stats.Fmt(all.MeanErrors()))

	res.Metrics["avg_text_acc"] = stats.Mean(textAccs)
	res.Metrics["min_text_acc"] = stats.Percentile(textAccs, 0)
	res.Metrics["char_acc"] = all.CharAccuracy()
	res.Metrics["mean_errors"] = all.MeanErrors()

	groups := GroupAccuracies(all.Inferred, all.Truth)
	for _, g := range []string{"lower", "upper", "number", "symbol"} {
		if acc, ok := groups[g]; ok {
			res.Table.AddRow("group:"+g, stats.Pct(acc), "", "")
			res.Metrics["group_"+g] = acc
		}
	}
	return res, nil
}

// RunFig18 reproduces Figure 18: inference accuracy per individual key.
// The paper shows most errors concentrated on a few minimal-overdraw
// symbols such as ';' and ”'.
func RunFig18(o Options) (*Result, error) {
	res := newResult("fig18", "Figure 18: inference accuracy over individual key presses",
		"key", "accuracy", "trials")

	cfg := DefaultConfig()
	repeats := o.Trials(50)
	charset := []rune("abcdefghijklmnopqrstuvwxyz1234567890,." +
		"ABCDEFGHIJKLMNOPQRSTUVWXYZ" + `@#$&-+()/*"':;!?`)

	// Type keys in shuffled blocks so every key sees varied context, split
	// into sessions of 24 presses.
	type chunk struct {
		text string
		seed int64
		vol  input.Volunteer
	}
	var chunks []chunk
	rng := sim.NewRand(o.Seed + 18)
	for rep := 0; rep < repeats; rep += 8 {
		perm := rng.Perm(len(charset))
		var text []rune
		for _, idx := range perm {
			for k := 0; k < min(8, repeats-rep); k++ {
				text = append(text, charset[idx])
			}
		}
		for start := 0; start < len(text); start += 24 {
			end := min(start+24, len(text))
			chunks = append(chunks, chunk{string(text[start:end]),
				o.Seed + int64(rep)*131071 + int64(start), input.Volunteers[start%5]})
		}
	}
	g := grid{trials: len(chunks), cells: []cell{{cfg: cfg,
		trial: func(t int) (int64, input.Script) {
			ch := chunks[t]
			return ch.seed, input.Typing(ch.text, ch.vol, input.SpeedAny,
				sim.NewRand(ch.seed^0x5DEECE66D), 700*sim.Millisecond)
		}}}}
	out, err := runEavesdrop(o, g)
	if err != nil {
		return nil, err
	}
	conf := stats.NewConfusion()
	for _, e := range out {
		scoreConfusion(conf, e.res.Text, e.truth)
	}

	var worst float64 = 1
	var worstKey rune
	lowSymbols := 0
	for _, r := range conf.Seen() {
		acc := conf.Accuracy(r)
		res.Table.AddRow(string(r), stats.Pct(acc), fmt.Sprintf("%d", repeats))
		res.Metrics["acc_"+string(r)] = acc
		if acc < worst {
			worst = acc
			worstKey = r
		}
		if acc < 0.97 && stats.CharGroup(r) == "symbol" {
			lowSymbols++
		}
	}
	res.Metrics["overall"] = conf.Overall()
	res.Metrics["worst_acc"] = worst
	res.Metrics["worst_is_symbol"] = bool01(stats.CharGroup(worstKey) == "symbol")
	res.Metrics["low_symbol_count"] = float64(lowSymbols)
	return res, nil
}

// scoreConfusion aligns inferred to truth position-wise; on length
// mismatch it advances through a minimal-edit alignment.
func scoreConfusion(conf *stats.Confusion, inferred, truth string) {
	ir, tr := []rune(inferred), []rune(truth)
	if len(ir) == len(tr) {
		for i := range tr {
			conf.Add(tr[i], ir[i])
		}
		return
	}
	// Simple greedy alignment for insertions/deletions.
	i, j := 0, 0
	for j < len(tr) {
		switch {
		case i >= len(ir):
			conf.Add(tr[j], 0)
			j++
		case ir[i] == tr[j]:
			conf.Add(tr[j], ir[i])
			i++
			j++
		case len(ir)-i > len(tr)-j: // extra inferred key: skip it
			i++
		case len(ir)-i < len(tr)-j: // missed key
			conf.Add(tr[j], 0)
			j++
		default:
			conf.Add(tr[j], ir[i])
			i++
			j++
		}
	}
}
