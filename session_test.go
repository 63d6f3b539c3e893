package gpuleak

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"gpuleak/internal/serve"
)

// TestEavesdropSessionMatchesEavesdrop pins the facade's channel-generic
// online phase to the quick start: over one channel, EavesdropSession
// returns exactly the Result of Attack.Eavesdrop on a twin session,
// sampler recovery accounting included, and Fused aliases Primary.
func TestEavesdropSessionMatchesEavesdrop(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 5}
	model, err := TrainWith(cfg, CollectOptions{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Session {
		sess := NewVictim(cfg)
		sess.Run(TypeText("secret", 5))
		return sess
	}

	ref := open()
	f, err := ref.Open()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewAttack(model).Eavesdrop(f, 0, ref.End)
	if err != nil {
		t.Fatal(err)
	}
	if want.Recovery.Ticks == 0 {
		t.Fatal("reference run recorded no sampler ticks")
	}

	sess := open()
	got, err := EavesdropSession(context.Background(), sess, []*Model{model}, 0, sess.End)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Primary, want) {
		t.Fatalf("EavesdropSession primary %+v, Eavesdrop %+v", got.Primary, want)
	}
	if got.Fused != got.Primary {
		t.Fatal("single-channel Fused does not alias Primary")
	}
}

// TestEavesdropSessionFusedMatchesServed pins the facade's two-channel
// fusion to the served /v1/eavesdrop answer for the same request: the
// same models, session and fusion rules land on the same texts and
// flip/recover counts. Recovery is not compared: the served fused
// pipeline does not report it yet.
func TestEavesdropSessionFusedMatchesServed(t *testing.T) {
	ctx := context.Background()
	req := serve.EavesdropRequest{Text: "hunter2", Seed: 9, Channels: []string{"kgsl", "proccount"}}
	scen, err := serve.ResolveScenario(req)
	if err != nil {
		t.Fatal(err)
	}
	trainCfg := serve.TrainConfig(scen.Cfg)
	km, err := TrainContext(ctx, trainCfg, WithRepeats(2))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := TrainContext(ctx, trainCfg, WithChannel("proccount"), WithRepeats(2))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewVictim(scen.Cfg)
	sess.Run(scen.Script())
	fr, err := EavesdropSession(ctx, sess, []*Model{km, pm}, 0, sess.End, WithChannels("kgsl", "proccount"))
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(serve.NewServer(serve.Options{Shards: 1, TrainRepeats: 2}))
	defer ts.Close()
	_, got := servedEavesdrop(t, ts.URL, `{"text":"hunter2","seed":9,"channels":["kgsl","proccount"]}`)
	if got.Fusion == nil {
		t.Fatal("served fused response carries no fusion block")
	}
	if got.Text != fr.Fused.Text || got.Fusion.PrimaryText != fr.Primary.Text ||
		got.Fusion.SecondaryText != fr.Secondary.Text {
		t.Fatalf("served texts fused %q primary %q secondary %q, facade %q %q %q",
			got.Text, got.Fusion.PrimaryText, got.Fusion.SecondaryText,
			fr.Fused.Text, fr.Primary.Text, fr.Secondary.Text)
	}
	if got.Fusion.Recovered != fr.Recovered || got.Fusion.Flipped != fr.Flipped {
		t.Fatalf("served recovered/flipped %d/%d, facade %d/%d",
			got.Fusion.Recovered, got.Fusion.Flipped, fr.Recovered, fr.Flipped)
	}
}
