package exp

import (
	"fmt"

	"gpuleak/internal/attack"
	"gpuleak/internal/input"
	"gpuleak/internal/stats"
)

// RunGuessing quantifies §7.1's remark that "such single errors in
// inference could be addressed with a small number of guesses": accuracy
// at k guesses, where candidates substitute runner-up keys at the
// least-confident positions first.
func RunGuessing(o Options) (*Result, error) {
	res := newResult("guessing", "§7.1: credential recovery with k guesses",
		"k", "accuracy@k")

	per := o.Trials(300)
	g := grid{trials: per, cells: []cell{{cfg: DefaultConfig(),
		trial: typing{textSeed: o.Seed + 71, seed: o.Seed, stride: 607, xor: 0xAB,
			alphabet: LowerDigits, length: 12, vols: input.Volunteers}.derive()}}}
	out, err := runEavesdrop(o, g)
	if err != nil {
		return nil, err
	}

	ks := []int{1, 2, 5, 10, 20, 50}
	hits := make([]int, len(ks))
	for _, e := range out {
		rank := attack.GuessRank(e.res.Keys, e.truth, ks[len(ks)-1])
		for ki, k := range ks {
			if rank > 0 && rank <= k {
				hits[ki]++
			}
		}
	}
	for ki, k := range ks {
		acc := float64(hits[ki]) / float64(per)
		res.Table.AddRow(fmt.Sprintf("%d", k), stats.Pct(acc))
		res.Metrics[fmt.Sprintf("acc@%d", k)] = acc
	}
	return res, nil
}
