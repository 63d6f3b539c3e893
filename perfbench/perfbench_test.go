package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gpuleak/internal/keyboard"
	"gpuleak/internal/serve"
)

func TestQuantileReportsSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: quantile must sort
		}
		return out
	}
	cases := []struct {
		n        int
		p        float64
		want     float64
		beyondIs int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{10, 0.99, 10, 0},
		{1, 0.99, 1, 0},
	}
	for _, c := range cases {
		v, beyond := quantile(xs(c.n), c.p)
		if v != c.want || beyond != c.beyondIs {
			t.Errorf("quantile(n=%d, p=%g) = %g with %d beyond, want %g with %d", c.n, c.p, v, beyond, c.want, c.beyondIs)
		}
	}
	if v, beyond := quantile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("quantile(empty) = %g, %d; want 0, 0", v, beyond)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ss := []span{
		{ID: 0, Parent: -1, Name: "replay", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "read", Start: 15, End: 20},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(ss)
	want := []int64{100 - 50 - 10, 30 - 5, 5, 30, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpansAndSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 3; op++ {
		tr.op = op
		tr.begin("replay")
		tr.begin("victim.build")
		tr.end()
		tr.begin("attack.stream")
		for i := 0; i < 4; i++ {
			tr.begin("kgsl.read")
			tr.end()
		}
		tr.begin("classify")
		tr.unwind() // closes classify, attack.stream and replay
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v left open", s)
		}
		if s.Name == "kgsl.read" && tr.spans[s.Parent].Name != "attack.stream" {
			t.Fatalf("kgsl.read parent = %q, want attack.stream", tr.spans[s.Parent].Name)
		}
	}
	lt := aggregate(tr.spans)
	for op, root := range lt.rootDur {
		if lt.opSums[op] != root {
			t.Errorf("op %d: self times sum to %g, root span is %g", op, lt.opSums[op], root)
		}
	}
	if n := len(lt.dur["kgsl.read"]); n != 12 {
		t.Errorf("recorded %d kgsl.read spans, want 12", n)
	}
}

func TestClosedLoopRunsMinimumOpSet(t *testing.T) {
	samples, elapsed := closedLoop(2, time.Millisecond, 20, func(int) (time.Time, error) {
		time.Sleep(time.Millisecond)
		return time.Now(), nil
	})
	seen := map[int]bool{}
	for _, s := range samples {
		seen[s.op] = true
		if s.latency() < time.Millisecond {
			t.Errorf("op %d: latency %v shorter than the op", s.op, s.latency())
		}
		if s.first <= 0 || s.done > elapsed {
			t.Errorf("op %d: first %v done %v elapsed %v", s.op, s.first, s.done, elapsed)
		}
	}
	for i := 0; i < 20; i++ {
		if !seen[i] {
			t.Fatalf("op %d of the minimum set never ran", i)
		}
	}
}

func TestGeneratorsAreDeterministicForASeed(t *testing.T) {
	for i := 0; i < 50; i++ {
		if a, b := hotOp(7, i), hotOp(7, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("hotOp(7, %d) differs between calls: %+v vs %+v", i, a, b)
		}
		if a, b := streamOp(7, i), streamOp(7, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("streamOp(7, %d) differs between calls", i)
		}
		req := hotOp(7, i)
		if n := len([]rune(req.Text)); n < 8 || n > 16 {
			t.Errorf("credential %q has %d runes, want 8-16", req.Text, n)
		}
		typable := map[rune]bool{}
		for _, r := range keyboard.ByName(req.Keyboard).TypableRunes() {
			typable[r] = true
		}
		for _, r := range req.Text {
			if !typable[r] {
				t.Errorf("credential %q: %q is not typable on %s", req.Text, r, req.Keyboard)
			}
		}
		if _, err := serve.ResolveScenario(streamOp(7, i)); err != nil {
			t.Errorf("streamOp(7, %d) does not resolve: %v", i, err)
		}
	}
	if reflect.DeepEqual(hotOp(7, 0), hotOp(8, 0)) {
		t.Error("hotOp ignores the seed")
	}
	if !reflect.DeepEqual(trainWalk(7), trainWalk(7)) || reflect.DeepEqual(trainWalk(7), trainWalk(8)) {
		t.Error("trainWalk is not a pure function of the seed")
	}
	if !reflect.DeepEqual(sampleOps(7, 400, 48), sampleOps(7, 400, 48)) {
		t.Error("sampleOps is not a pure function of the seed")
	}
}

func TestStreamMixRotatesDefensesAndFusion(t *testing.T) {
	defenses := map[string]int{}
	for i := 0; i < 32; i++ {
		req := streamOp(3, i)
		if isFusion(i) {
			if len(req.Channels) != 2 || req.FaultProfile != "starve" {
				t.Errorf("op %d: fusion op is %+v", i, req)
			}
			continue
		}
		if !req.Practical || req.Defense == "" || req.FaultProfile == "" {
			t.Errorf("op %d: session op is %+v", i, req)
		}
		defenses[req.Defense]++
	}
	for _, d := range streamDefenses {
		if defenses[d] != 6 {
			t.Errorf("defense %s on %d of 24 sessions, want 6", d, defenses[d])
		}
	}
}

// registryCapacity is gpuleakd's default 4 shards x 8 models.
const registryCapacity = 4 * 8

func TestTrainWalkNeverRevisitsWithinRegistryCapacity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, recheckSeed} {
		walk := trainWalk(seed)
		keys := make([]string, len(walk))
		for i, c := range walk {
			cfg, err := c.victimConfig()
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = serve.ChannelKey(serve.TrainConfig(cfg), "")
		}
		// Walk twice around, so the wrap from the last config to the
		// first is covered too.
		last := map[string]int{}
		for i := 0; i < 2*len(keys); i++ {
			k := keys[i%len(keys)]
			if j, ok := last[k]; ok && i-j <= registryCapacity {
				t.Fatalf("seed %d: registry key %s recurs after %d trains", seed, k, i-j)
			}
			last[k] = i
		}
		if len(last) != 420 {
			t.Fatalf("seed %d: %d distinct registry keys, want 420", seed, len(last))
		}
		// Every aligned block of 70 ops covers each device x app pair once.
		for b := 0; b < len(walk); b += 70 {
			pairs := map[[2]string]bool{}
			for _, c := range walk[b : b+70] {
				pairs[[2]string{c.device, c.app}] = true
			}
			if len(pairs) != 70 {
				t.Fatalf("seed %d: block at op %d covers %d device x app pairs, want 70", seed, b, len(pairs))
			}
		}
	}
}

// readLedger parses a ledger. A final line without its newline is a write
// the run did not finish and is skipped; any other malformed line is an
// error.
func readLedger(r io.Reader) ([]entry, error) {
	var out []entry
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		b, err := br.ReadBytes('\n')
		if err == io.EOF {
			return out, nil // b, if any, is a torn final line
		}
		if err != nil {
			return out, fmt.Errorf("reading ledger: %w", err)
		}
		var e entry
		if err := json.Unmarshal(b, &e); err != nil {
			return out, fmt.Errorf("ledger line %d: %w", n, err)
		}
		out = append(out, e)
	}
}

func TestLedgerParsesAtEveryCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	led.record("provenance", provenance("eavesdrop-hot", 1, 10, 1))
	led.metrics([]metric{{"latency_p50_ms", 4.2, "ms"}, {"setup_s", 0.8, "s"}})
	led.spans([]span{{ID: 0, Parent: -1, Name: "replay", End: 10}, {ID: 1, Name: "kgsl.read", Start: 1, End: 2}})
	if err := led.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := readLedger(bytes.NewReader(b))
	if err != nil || len(full) != 5 {
		t.Fatalf("full ledger: %d entries, %v; want 5", len(full), err)
	}
	for cut := 0; cut <= len(b); cut++ {
		got, err := readLedger(bytes.NewReader(b[:cut]))
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if want := bytes.Count(b[:cut], []byte("\n")); len(got) != want {
			t.Fatalf("cut at byte %d: %d entries, want the %d complete lines", cut, len(got), want)
		}
	}
}

func TestOutputCheckAgreesWithServerAndCatchesMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	f := newFleet()
	defer f.close()
	ref := newReplayer()
	for i, session := range []bool{false, true, false} {
		req := hotOp(1, i)
		if session {
			req = streamOp(1, i) // a practical session with a fault and a defense
		}
		got, _, _, err := serveOne(f, req, session)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.eavesdrop(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := compare(got, session, want); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		got.resp.Text += "x"
		if err := compare(got, session, want); !errors.Is(err, errMismatch) {
			t.Fatalf("op %d: altered text passed the check (err %v)", i, err)
		}
	}
}

func TestBenchmarkJSONNamesEveryPrintedMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	e := &env{}
	var o outcome
	e.addEndToEnd(&o, 1, window{samples: []sample{{done: time.Millisecond}}, elapsed: time.Second}, 1, 1)
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: program prints %s [%s], BENCHMARK.json lists %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", o.metrics, spec.EndToEnd)
	var layers outcome
	if err := e.addPerLayer(&layers, map[string]float64{}, nil); err != nil {
		t.Fatal(err)
	}
	same("per_layer", layers.metrics, spec.PerLayer)
}
