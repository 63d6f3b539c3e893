package serve

// Served-vs-library equality for requests that carry both a fault
// profile and a defense: the one place the probe stack order (device
// innermost, then the fault plane, then the defense, retry policy armed)
// is observable end to end.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpuleak/internal/attack"
	"gpuleak/internal/channel"
	"gpuleak/internal/fault"
	"gpuleak/internal/proccount"
	"gpuleak/internal/victim"
)

func TestServedFaultAndDefenseMatchLibrary(t *testing.T) {
	s := NewServer(Options{Shards: 1, TrainWorkers: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		`{"text":"hunter2","seed":9,"fault_profile":"moderate","defense":"quantize+jitter","defense_strength":0.3}`,
		`{"text":"hunter2","seed":9,"channels":["kgsl","proccount"],"fault_profile":"starve","defense":"quantize","defense_strength":0.3}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/eavesdrop", body)
		if resp.StatusCode != http.StatusOK {
			er := decodeBody[ErrorResponse](t, resp)
			t.Fatalf("body %s: status %d: %s", body, resp.StatusCode, er.Error)
		}
		got, err := json.Marshal(decodeBody[EavesdropResponse](t, resp))
		if err != nil {
			t.Fatal(err)
		}
		var req EavesdropRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(libraryEavesdrop(t, s, req))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("body %s: served response differs from the hand-stacked library run:\nserved:  %s\nlibrary: %s", body, got, want)
		}
	}
}

// libraryEavesdrop answers req through the attack library with the probe
// stack built by hand: the KGSL device file innermost, the fault plane
// over it, the armed defense over that, and the default retry policy on
// every wrapped channel. Models come from the server's registry, so only
// the read path is under test.
func libraryEavesdrop(t *testing.T, s *Server, req EavesdropRequest) EavesdropResponse {
	t.Helper()
	scen, err := ResolveScenario(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	trainCfg := TrainConfig(scen.Cfg)
	pm, err := s.Registry().GetChannel(ctx, trainCfg, scen.Primary())
	if err != nil {
		t.Fatal(err)
	}
	sess := victim.New(scen.Cfg)
	sess.Run(scen.Script())
	inst, err := scen.Defense.Arm(sess, scen.DefenseStrength, scen.DefenseSeed)
	if err != nil {
		t.Fatal(err)
	}
	retry := attack.DefaultRetryPolicy()

	f, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	kgslProbe := inst.WrapProbe(channel.DefaultName, fault.NewFile(f, scen.Fault, scen.FaultSeed))

	resp := EavesdropResponse{Schema: Schema, Truth: sess.TypedText(), Channel: scen.Primary()}
	var res *attack.Result
	if len(scen.Channels) < 2 {
		atk := attack.New(pm)
		atk.Retry = retry
		if res, err = atk.EavesdropStreamContext(ctx, kgslProbe, 0, sess.End, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		pa := &attack.Attack{Models: []*attack.Model{pm}, Interval: attack.DefaultInterval, Retry: retry}
		ps, err := attack.NewSamplerTaxonomy(kgslProbe, attack.DefaultInterval, retry, fault.Taxonomy{})
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := ps.Collect(0, sess.End)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := pa.EavesdropTrace(ptr)
		if err != nil {
			t.Fatal(err)
		}

		sm, err := s.Registry().GetChannel(ctx, trainCfg, proccount.Name)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := channel.Get(proccount.Name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sch.Open(sess)
		if err != nil {
			t.Fatal(err)
		}
		sprobe := inst.WrapProbe(sch.Name(), sp)
		sa := &attack.Attack{Models: []*attack.Model{sm}, Interval: sch.Interval(), Errors: sch.Taxonomy(), Retry: retry}
		ss, err := attack.NewSamplerTaxonomy(sprobe, sch.Interval(), retry, sch.Taxonomy())
		if err != nil {
			t.Fatal(err)
		}
		str, err := ss.Collect(0, sess.End)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sa.EavesdropTrace(str)
		if err != nil {
			t.Fatal(err)
		}
		fr := attack.Fuse(pm, ptr.Deltas(), pres, sm, sres, attack.DefaultInterval, attack.FusionOptions{})
		res = fr.Fused
		resp.Fusion = &FusionInfo{
			Channels:      append([]string(nil), scen.Channels...),
			PrimaryText:   fr.Primary.Text,
			SecondaryText: fr.Secondary.Text,
			Recovered:     fr.Recovered,
			Flipped:       fr.Flipped,
		}
	}
	resp.Model = res.Model.String()
	resp.Text = res.Text
	resp.Keys = len(res.Keys)
	resp.EstimatedLength = res.EstimatedLength
	resp.Stats = res.Stats
	resp.Degraded = res.Degraded
	if res.Degraded {
		rec := res.Recovery
		resp.Recovery = &rec
	}
	return resp
}
