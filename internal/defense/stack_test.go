package defense

// Tests of the probe stack rule: the device innermost, the fault plane
// over it, the defense outermost, faults only on device probes, and the
// retry policy armed exactly when a layer was requested.

import (
	"testing"

	"gpuleak/internal/android"
	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/fault"
	"gpuleak/internal/input"
	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
	"gpuleak/internal/victim"
)

func TestWrapBareProbeIsPassthrough(t *testing.T) {
	p := &fakeProbe{}
	st, err := Wrap(channel.DefaultName, p, fault.Profile{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probe != channel.Probe(p) || st.Fault != nil || st.Retry.Enabled() {
		t.Errorf("bare stack = %+v, want the probe itself, no fault layer, zero retry policy", st)
	}
}

func TestWrapStacksDefenseOverFault(t *testing.T) {
	// Two identical sessions: one stacked by Wrap, one by hand in the
	// documented order. Every reservation and read must agree.
	build := func() (*victim.Session, Instance) {
		sess := victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 1})
		sess.Run(input.Typing("ab1", input.Volunteers[0], input.SpeedAny, sim.NewRand(1), 700*sim.Millisecond))
		pol, err := Get("ratelimit+quantize")
		if err != nil {
			t.Fatal(err)
		}
		inst, err := pol.Arm(sess, 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sess, inst
	}
	sess, inst := build()
	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Wrap(channel.DefaultName, f, fault.Moderate, 3, inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fault == nil {
		t.Fatal("a named fault profile built no fault layer")
	}
	if st.Retry != attack.DefaultRetryPolicy() {
		t.Errorf("retry policy %+v, want the default", st.Retry)
	}

	refSess, refInst := build()
	rf, err := refSess.Open()
	if err != nil {
		t.Fatal(err)
	}
	ref := refInst.WrapProbe(channel.DefaultName, fault.NewFile(rf, fault.Moderate, 3))
	changes := 0
	var prev trace.Raw
	for at := sim.Time(0); at <= sess.End; at += 8 * sim.Millisecond {
		gotErr, wantErr := st.Probe.ReserveSelected(at), ref.ReserveSelected(at)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("at %v: reserve error %v, hand-built stack %v", at, gotErr, wantErr)
		}
		got, gotErr := st.Probe.ReadSelected(at)
		want, wantErr := ref.ReadSelected(at)
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("at %v: read (%v, %v), hand-built stack (%v, %v)", at, got, gotErr, want, wantErr)
		}
		if gotErr == nil && got != prev {
			changes++
			prev = got
		}
	}
	if changes < 3 {
		t.Errorf("only %d counter changes over the session: the comparison saw no typing", changes)
	}
	if st.Fault.Stats.Total() == 0 {
		t.Error("the moderate profile injected nothing over the session")
	}
}

func TestWrapFaultNeedsDevice(t *testing.T) {
	if _, err := Wrap("proccount", &fakeProbe{}, fault.Moderate, 1, nil); err == nil {
		t.Error("a fault profile stacked on a probe without the KGSL ioctl surface")
	}
}

func TestWrapUncoveredChannelStillArmsRetry(t *testing.T) {
	// rbac covers KGSL only: the proccount probe passes through untouched,
	// but a requested defense arms the retry policy on every channel.
	pol, err := Get("rbac")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pol.Arm(victim.New(victim.Config{Device: android.OnePlus8Pro, Seed: 1}), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := &fakeProbe{}
	st, err := Wrap("proccount", p, fault.Profile{}, 0, inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Probe != channel.Probe(p) {
		t.Error("a KGSL-only defense wrapped the proccount probe")
	}
	if !st.Retry.Enabled() {
		t.Error("a requested defense left the retry policy disarmed")
	}
}
