package attack

import (
	"sync"
	"testing"

	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

// The online phase is a counter read per tick and a classify per delta
// (§7.6 budgets inference under 0.1 ms), so these tests pin what that
// path allocates when it runs. A change to any count is a change to the
// hot path: lower it here when an allocation goes away, and justify it
// in review when one comes back.

var (
	allocOnce  sync.Once
	allocTrace *trace.Trace
	allocErr   error
)

// allocFixture returns the shared model and one fault-free collection of
// "hunter2pass" typed on the base victim.
func allocFixture(t *testing.T) (*Model, *trace.Trace) {
	t.Helper()
	m := sharedModel(t)
	allocOnce.Do(func() {
		sess := victim.New(baseVictimConfig())
		sess.Run(input.Typing("hunter2pass", input.Volunteers[0], input.SpeedAny, sim.NewRand(99*7), 700*sim.Millisecond))
		f, err := sess.Open()
		if err != nil {
			allocErr = err
			return
		}
		s, err := NewSampler(f, DefaultInterval)
		if err != nil {
			allocErr = err
			return
		}
		allocTrace, allocErr = s.Collect(0, sess.End)
	})
	if allocErr != nil {
		t.Fatal(allocErr)
	}
	return m, allocTrace
}

// TestClassifyAllocs pins the per-verdict centroid scan (Classify, its
// denoised variant and the weighted Vec.Dist they call) at zero: one run
// classifies every delta of the fixture both ways.
func TestClassifyAllocs(t *testing.T) {
	m, tr := allocFixture(t)
	ds := tr.Deltas()
	classify := func() {
		for _, d := range ds {
			_ = m.Classify(d.V)
			_ = m.ClassifyDenoised(d.V)
		}
	}
	if got := testing.AllocsPerRun(20, classify); got != 0 {
		t.Errorf("Classify+ClassifyDenoised: %v allocs per pass over %d deltas, want 0", got, len(ds))
	}
}

// TestDeltasAllocs pins delta extraction over the fixture's ~500
// samples: only the amortized growth of the result slice allocates.
func TestDeltasAllocs(t *testing.T) {
	_, tr := allocFixture(t)
	const deltasAllocs = 7
	if got := testing.AllocsPerRun(20, func() { tr.Deltas() }); got != deltasAllocs {
		t.Errorf("Trace.Deltas: %v allocs, want %d", got, deltasAllocs)
	}
}

// TestEngineAllocs pins the streaming engine twice: a warm engine
// consumes every delta the model explains on its own (keys and noise)
// without allocating, and one whole run over the fixture costs the
// engine, its classify closure, the growth of its key list and one copy
// per unexplained fragment it parks as pending.
func TestEngineAllocs(t *testing.T) {
	m, tr := allocFixture(t)
	ds := tr.Deltas()
	const runAllocs = 13
	if got := testing.AllocsPerRun(20, func() {
		NewEngine(m, tr.Interval, OnlineOptions{}).ProcessAll(ds)
	}); got != runAllocs {
		t.Errorf("NewEngine+ProcessAll: %v allocs, want %d", got, runAllocs)
	}

	var steady []trace.Delta
	for _, d := range ds {
		if v := m.ClassifyDenoised(d.V); v.IsKey || v.IsNoise {
			steady = append(steady, d)
		}
	}
	eng := NewEngine(m, tr.Interval, OnlineOptions{})
	eng.ProcessAll(ds)
	// Each run replays the whole set one lap later, so a single
	// allocation anywhere on the key or noise path fails the pin. The key
	// list has room for every replayed press: what is measured is
	// Process, not the list's growth.
	const runs = 20
	eng.keys = make([]InferredKey, 0, (runs+1)*len(steady))
	lap := ds[len(ds)-1].At + sim.Second
	laps := 0
	replay := func() {
		laps++
		for _, d := range steady {
			d.At += sim.Time(laps) * lap
			eng.Process(d)
		}
	}
	if got := testing.AllocsPerRun(runs, replay); got != 0 {
		t.Errorf("warm Engine.Process: %v allocs per replay of %d deltas, want 0", got, len(steady))
	}
	if eng.Stats().Keys == 0 {
		t.Fatal("the replay inferred no keys")
	}
}

// TestSegmentTraceAllocs pins whole-trace segmentation: the streaming
// pass, the consumed bitmap, the leftover clusters and each cluster's
// dynamic-programming tables.
func TestSegmentTraceAllocs(t *testing.T) {
	m, tr := allocFixture(t)
	ds := tr.Deltas()
	const segmentAllocs = 46
	if got := testing.AllocsPerRun(20, func() {
		SegmentTrace(m, ds, tr.Interval, OnlineOptions{})
	}); got != segmentAllocs {
		t.Errorf("SegmentTrace: %v allocs, want %d", got, segmentAllocs)
	}
}
