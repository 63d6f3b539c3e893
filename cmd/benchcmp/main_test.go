package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseReport is a two-experiment gpuleak-bench/v1 report; each call
// returns a fresh copy the cases may mutate.
func baseReport() *report {
	return &report{
		Schema:      "gpuleak-bench/v1",
		GoVersion:   "go1.24.0",
		Quick:       true,
		Seed:        20260705,
		WallSeconds: 10,
		Experiments: []experimentReport{
			{ID: "fig17", Seconds: 4, Metrics: map[string]float64{"avg_text_acc": 0.844, "char_acc": 0.985}},
			{ID: "fig25", Seconds: 1, Metrics: map[string]float64{"p95_ms": 0.012}},
		},
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name        string
		mutate      func(cur *report)
		metricsOnly bool
		skip        []string
		fail        bool
		want        string // a line the output must contain
	}{
		{name: "identical", mutate: func(*report) {}, metricsOnly: true, want: "within tolerance"},
		{
			name:        "drifted metric",
			mutate:      func(cur *report) { cur.Experiments[0].Metrics["char_acc"] = 0.97 },
			metricsOnly: true, fail: true,
			want: "METRIC DRIFT: fig17/char_acc 0.985000 -> 0.970000",
		},
		{
			name:        "skipped drift",
			mutate:      func(cur *report) { cur.Experiments[1].Metrics["p95_ms"] = 0.5 },
			metricsOnly: true, skip: []string{"fig25/*"},
			want: "within tolerance",
		},
		{
			name:        "vanished experiment",
			mutate:      func(cur *report) { cur.Experiments = cur.Experiments[:1] },
			metricsOnly: true, skip: []string{"fig25/*"}, fail: true,
			want: "MISSING: experiment fig25",
		},
		{
			name:        "vanished metric",
			mutate:      func(cur *report) { delete(cur.Experiments[0].Metrics, "char_acc") },
			metricsOnly: true, fail: true,
			want: "MISSING: metric fig17/char_acc",
		},
		{
			name:        "vanished skipped metric",
			mutate:      func(cur *report) { delete(cur.Experiments[1].Metrics, "p95_ms") },
			metricsOnly: true, skip: []string{"fig25/*"},
			want: "within tolerance",
		},
		{
			name: "more failures",
			mutate: func(cur *report) {
				cur.Failures = 1
				cur.Experiments[1] = experimentReport{ID: "fig25", Error: "boom"}
			},
			metricsOnly: true, skip: []string{"fig25/*"}, fail: true,
			want: "FAIL: 1 experiment failures (baseline had 0)",
		},
		{
			name:   "slow wall time",
			mutate: func(cur *report) { cur.WallSeconds = 20 },
			fail:   true,
			want:   "FAIL: wall time 2.00x baseline exceeds -max-regress 1.50",
		},
		{
			name:        "slow wall time, metrics only",
			mutate:      func(cur *report) { cur.WallSeconds = 20 },
			metricsOnly: true,
			want:        "within tolerance",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := baseReport()
			c.mutate(cur)
			var out strings.Builder
			failed := compare(&out, baseReport(), cur, 1.5, c.metricsOnly, c.metricsOnly, c.skip)
			if failed != c.fail {
				t.Errorf("failed = %v, want %v; output:\n%s", failed, c.fail, out.String())
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("output lacks %q:\n%s", c.want, out.String())
			}
		})
	}
}

func TestLoadRejectsSchema(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"schema":"gpuleak-bench/v1","experiments":[{"id":"fig5"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"schema":"gpuleak-load/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := load(good); err != nil || len(rep.Experiments) != 1 {
		t.Fatalf("load(good) = %+v, %v", rep, err)
	}
	if _, err := load(bad); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("load(bad) error = %v, want an unsupported schema error", err)
	}
}
