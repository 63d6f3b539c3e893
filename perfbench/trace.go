package main

import (
	"math"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer
// around a call to its public function. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. The traced replay is serial, so the
// open spans form a stack and a new span's parent is the innermost open
// one. A nil *tracer records nothing, which is the untraced path.
type tracer struct {
	epoch time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// unwind closes every open span, after a call that failed inside them.
func (t *tracer) unwind() {
	for t != nil && len(t.open) > 0 {
		t.end()
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover.
func selfTimes(ss []span) []int64 {
	kids := make([][]int, len(ss))
	for i, s := range ss {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(ss))
	for i, s := range ss {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(ss[k].Start, s.Start), min(ss[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, hi int64 = 0, math.MinInt64
		for _, v := range iv {
			if v[0] > hi {
				covered += v[1] - v[0]
				hi = v[1]
			} else if v[1] > hi {
				covered += v[1] - hi
				hi = v[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTimes groups span durations and self times by name, and per
// operation by name (summed), in nanoseconds.
type layerTimes struct {
	dur, self       map[string][]float64
	opSelf          map[string]map[int]float64
	rootDur, opSums map[int]float64
}

func aggregate(ss []span) layerTimes {
	self := selfTimes(ss)
	lt := layerTimes{
		dur: map[string][]float64{}, self: map[string][]float64{},
		opSelf: map[string]map[int]float64{}, rootDur: map[int]float64{}, opSums: map[int]float64{},
	}
	for i, s := range ss {
		lt.dur[s.Name] = append(lt.dur[s.Name], float64(s.dur()))
		lt.self[s.Name] = append(lt.self[s.Name], float64(self[i]))
		if lt.opSelf[s.Name] == nil {
			lt.opSelf[s.Name] = map[int]float64{}
		}
		lt.opSelf[s.Name][s.Op] += float64(self[i])
		lt.opSums[s.Op] += float64(self[i])
		if s.Parent < 0 {
			lt.rootDur[s.Op] += float64(s.dur())
		}
	}
	return lt
}

// perOp returns a layer's summed self time per operation, over ops.
func (lt layerTimes) perOp(name string, ops []int) []float64 {
	out := make([]float64, 0, len(ops))
	for _, op := range ops {
		out = append(out, lt.opSelf[name][op])
	}
	return out
}

// quantile returns the nearest-rank p-quantile of xs (0 < p <= 1) and the
// number of samples ranked beyond it; a tail percentile is only as good
// as that count. xs is not modified.
func quantile(xs []float64, p float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(n)))
	k = min(max(k, 1), n)
	return s[k-1], n - k
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
