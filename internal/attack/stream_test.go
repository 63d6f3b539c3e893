package attack

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/victim"
)

// TestEavesdropStreamMatchesOneShot pins the online phase's identity
// contract: Run with no emit samples exactly the trace a bare sampler
// collects, EavesdropStreamContext over a device file produces the exact
// Result of that Run, and replaying its key/retract events reconstructs
// the final key sequence.
func TestEavesdropStreamMatchesOneShot(t *testing.T) {
	cfg := baseVictimConfig()
	cfg.Seed = 4242
	m := sharedModel(t)
	script := input.Typing("str3am", input.Volunteers[0], input.SpeedAny,
		sim.NewRand(9), 700*sim.Millisecond)

	open := func() (*victim.Session, DeviceFile) {
		sess := victim.New(cfg)
		sess.Run(script)
		f, err := sess.Open()
		if err != nil {
			t.Fatal(err)
		}
		return sess, f
	}

	sess1, f1 := open()
	tr, want, err := New(m).Run(context.Background(), f1, 0, sess1.End, nil)
	if err != nil {
		t.Fatal(err)
	}

	sess0, f0 := open()
	s, err := NewSamplerTaxonomy(f0, DefaultInterval, RetryPolicy{}, fault.Taxonomy{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.CollectContext(context.Background(), 0, sess0.End)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, ref) {
		t.Fatalf("Run sampled %d samples, a bare sampler %d: traces differ", tr.Len(), ref.Len())
	}

	sess2, f2 := open()
	var events []StreamEvent
	got, err := New(m).EavesdropStreamContext(context.Background(), f2, 0, sess2.End,
		func(ev StreamEvent) error {
			events = append(events, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed result %+v != one-shot %+v", got, want)
	}

	// Replaying the event tape must land on the one-shot key sequence.
	var replay []rune
	for _, ev := range events {
		switch ev.Kind {
		case "key":
			replay = append(replay, ev.Key.R)
		case "retract":
			replay = replay[:ev.Keys]
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
		if len(replay) != ev.Keys {
			t.Fatalf("event count %d disagrees with replayed length %d", ev.Keys, len(replay))
		}
	}
	if string(replay) != want.Text {
		t.Fatalf("replayed events %q != one-shot text %q", string(replay), want.Text)
	}

	// An emit error must abort the run.
	sess3, f3 := open()
	boom := errors.New("client went away")
	if _, err := New(m).EavesdropStreamContext(context.Background(), f3, 0, sess3.End,
		func(StreamEvent) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}
