package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL hardens the telemetry reader the same way trace.FuzzReadCSV
// hardens the trace parser: arbitrary input never panics, and any stream
// that parses must survive a write/read round trip unchanged (the writer
// is canonical, so the second serialization must equal the first).
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteJSONL(&buf, sampleEvents())
	f.Add(buf.String())
	f.Add("")
	f.Add("{}\n")
	f.Add(`{"seq":0,"at_us":12,"name":"e","track":"main"}` + "\n")
	f.Add(`{"seq":0,"at_us":12,"dur_us":3,"name":"e","track":"t","attrs":{"a":1,"b":"x"}}` + "\n")
	f.Fuzz(func(t *testing.T, doc string) {
		evs, err := ReadJSONL(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, evs); err != nil {
			t.Fatalf("reserializing parsed stream: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(evs))
		}
		var out2 bytes.Buffer
		if err := WriteJSONL(&out2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("serialization not canonical:\n%q\nvs\n%q", out.String(), out2.String())
		}
	})
}

// FuzzParseTraceparent hardens the traceparent header parser, which
// reads untrusted input at the serving and routing edges: arbitrary
// input never panics, a rejection returns the zero context, and an
// accepted header yields a valid remote context whose re-exported
// header parses back to the same ids.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTrace(1).Traceparent())
	f.Add("")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() || !tc.Remote {
			t.Fatalf("accepted %q as %+v: want a valid remote context", s, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back.TraceID != tc.TraceID || back.SpanID != tc.SpanID {
			t.Fatalf("re-parsing %q gave %+v (ok=%v), want ids of %+v", tc.Traceparent(), back, ok, tc)
		}
	})
}
