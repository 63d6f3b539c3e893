package attack

import (
	"context"
	"testing"

	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// TestCollectAllocs pins the allocations of one fault-free collection
// without a tracer: the trace and its sample slice, presized to the tick
// count so the polling loop never grows it (trace.Append never
// reallocates). Every tick reads through the KGSL file's reused request
// buffer and allocates nothing, so one allocating tick would add ~475.
func TestCollectAllocs(t *testing.T) {
	sess := victim.New(baseVictimConfig())
	sess.Run(input.Script{Events: []input.Event{
		{Kind: input.EvPress, R: 'a', At: 700 * sim.Millisecond, Dur: 90 * sim.Millisecond},
		{Kind: input.EvPress, R: 'b', At: 1100 * sim.Millisecond, Dur: 90 * sim.Millisecond},
	}})
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(f, DefaultInterval)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	collect := func() {
		if _, err := s.CollectContext(ctx, 0, sess.End); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := s.CollectContext(ctx, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if ticks := int(sess.End/DefaultInterval) + 1; tr.Len() != ticks || cap(tr.Samples) != ticks {
		t.Fatalf("trace holds %d samples in cap %d, want %d ticks", tr.Len(), cap(tr.Samples), ticks)
	}
	const collectAllocs = 2
	if got := testing.AllocsPerRun(20, collect); got != collectAllocs {
		t.Errorf("Sampler.CollectContext: %v allocs, want %d", got, collectAllocs)
	}
}
