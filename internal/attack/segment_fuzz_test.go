package attack

import (
	"slices"
	"sort"
	"testing"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// fuzzMaxFragments bounds a fuzzed cluster so the brute force over every
// segmentation stays small (at most 3^8 of them).
const fuzzMaxFragments = 8

// fuzzFragments decodes a run of at most fuzzMaxFragments deltas, two
// bytes per item: a kind byte and a parameter byte that picks the
// centroid. The kind byte's low two bits choose the item: 0 splits a key
// centroid of the model into one to three parts (bits 2-3 the count,
// bits 4-7 the fractions), 1 is a whole noise centroid, and 2 or 3 is a
// junk vector the model has never seen.
func fuzzFragments(m *Model, keys []string, data []byte) []trace.Delta {
	var ds []trace.Delta
	add := func(v trace.Vec) {
		if len(ds) < fuzzMaxFragments {
			ds = append(ds, trace.Delta{At: sim.Time(len(ds)) * DefaultInterval, V: v, Gap: DefaultInterval})
		}
	}
	for ; len(data) >= 2; data = data[2:] {
		kind, p := data[0], int(data[1])
		switch kind & 3 {
		case 0:
			c := m.Keys[keys[p%len(keys)]]
			f1 := float64(1+(kind>>4)&3) / 10
			f2 := float64(1+(kind>>6)&3) / 10
			switch 1 + (kind>>2&3)%3 {
			case 1:
				add(c)
			case 2:
				add(c.Scale(f1))
				add(c.Scale(1 - f1))
			default:
				add(c.Scale(f1))
				add(c.Scale(f2))
				add(c.Scale(1 - f1 - f2))
			}
		case 1:
			add(m.Noise[p%len(m.Noise)].V)
		default:
			var v trace.Vec
			for j := range v {
				v[j] = float64((p*(j+7)+int(kind))%251) * float64(j+1) * 40
			}
			add(v)
		}
	}
	return ds
}

// bruteSegment enumerates every contiguous segmentation of ds with
// leftovers, scoring a segment as explained when ClassifyDenoised of its
// sum is a key or noise (segmentCluster's rule). It returns the most
// explained fragments, how many segmentations reach it, and the keys of
// one that does.
func bruteSegment(m *Model, ds []trace.Delta) (best, ties int, keys []InferredKey) {
	best = -1
	var walk func(i, explained int, acc []InferredKey)
	walk = func(i, explained int, acc []InferredKey) {
		if i == len(ds) {
			switch {
			case explained > best:
				best, ties, keys = explained, 1, append([]InferredKey(nil), acc...)
			case explained == best:
				ties++
			}
			return
		}
		walk(i+1, explained, acc) // fragment i left unexplained
		var sum trace.Vec
		for j := i; j < len(ds); j++ {
			sum = sum.Add(ds[j].V)
			v := m.ClassifyDenoised(sum)
			switch {
			case v.IsKey:
				walk(j+1, explained+j-i+1, append(acc, InferredKey{At: ds[i].At, R: v.R}))
			case v.IsNoise:
				walk(j+1, explained+j-i+1, acc)
			}
		}
	}
	walk(0, 0, nil)
	return best, ties, keys
}

// FuzzSegmentCluster checks the whole-trace dynamic program against a
// brute force over every segmentation of a short run of key fragments,
// noise and junk: the same number of explained fragments, the same keys
// when the optimum is unique, and the bail-out for runs over 16.
func FuzzSegmentCluster(f *testing.F) {
	m := sharedModel(f)
	keys := make([]string, 0, len(m.Keys))
	for k := range m.Keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f.Fuzz(func(t *testing.T, data []byte) {
		ds := fuzzFragments(m, keys, data)
		idx := make([]int, len(ds))
		for i := range idx {
			idx[i] = i
		}
		got, left := segmentCluster(m, ds, idx)
		best, ties, want := bruteSegment(m, ds)
		if explained := len(ds) - left; explained != best {
			t.Fatalf("segmentCluster explains %d of %d fragments, brute force %d", explained, len(ds), best)
		}
		if ties == 1 && !slices.Equal(got, want) {
			t.Fatalf("segmentCluster keys %v, unique optimum %v", got, want)
		}

		// Over 16 fragments it gives up before reading a delta.
		long := make([]int, 17+len(ds))
		if ks, left := segmentCluster(m, ds, long); ks != nil || left != len(long) {
			t.Fatalf("a %d-fragment run returned (%v, %d), want (nil, %d)", len(long), ks, left, len(long))
		}
	})
}
