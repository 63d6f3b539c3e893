// Command benchcmp compares two gpuleak-bench/v1 reports (the -json
// output of benchpaper) and flags wall-clock regressions beyond a
// tolerance factor. CI runs it warn-only against the committed
// BENCH_baseline.json so the perf trajectory is visible on every run
// without shared-runner noise failing builds.
//
// Usage:
//
//	benchcmp BENCH_baseline.json bench-new.json
//	benchcmp -max-regress 2.0 old.json new.json
//	benchcmp -metrics-only -skip 'fig25/*' BENCH_baseline.json bench-new.json
//
// -metrics-only splits the determinism gate from the perf watch: it
// ignores wall time entirely (shared CI runners make timings noisy) and
// fails only on new experiment failures, headline-metric drift, or an
// experiment or metric of the baseline that the new report lacks, which
// with fixed seed+quick settings are deterministic and therefore
// blocking. CI runs -metrics-only as a gate and the plain wall-clock
// comparison warn-only.
//
// -skip excludes experiment/metric pairs (comma-separated path.Match
// patterns) from the metrics diff. The one legitimate use is fig25, which
// measures the attacker's real classification wall time by design
// (simtime-waived) — its ms metrics drift run to run and belong to the
// warn-only perf watch, not the determinism gate.
//
// Exit status: 0 when the new report is within tolerance, 1 on a
// wall-clock regression beyond -max-regress (unless -metrics-only), new
// experiment failures, or metric drift or a missing experiment or metric
// under -metrics/-metrics-only;
// 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
)

// report mirrors the benchpaper -json schema; unknown fields are
// ignored so the two commands can evolve independently as long as the
// schema tag matches.
type report struct {
	Schema      string             `json:"schema"`
	GoVersion   string             `json:"go_version"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Failures    int                `json:"failures"`
	Experiments []experimentReport `json:"experiments"`
}

type experimentReport struct {
	ID      string             `json:"id"`
	Seconds float64            `json:"seconds"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	maxRegress := flag.Float64("max-regress", 1.5, "fail when new wall time exceeds baseline by this factor")
	checkMetrics := flag.Bool("metrics", false, "also diff headline metrics (same seed+quick runs are deterministic, so drift means a behavior change)")
	metricsOnly := flag.Bool("metrics-only", false, "gate on failures and metric drift only; ignore wall time (implies -metrics)")
	skip := flag.String("skip", "", "comma-separated experiment/metric patterns excluded from the metrics diff (path.Match syntax)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [flags] baseline.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	if compare(os.Stdout, old, cur, *maxRegress, *checkMetrics || *metricsOnly, *metricsOnly, splitPatterns(*skip)) {
		os.Exit(1)
	}
}

// compare prints the comparison of cur against the baseline old to w and
// reports whether it fails: new experiment failures always do, a wall
// time beyond maxRegress unless metricsOnly, and metric drift or a
// vanished experiment or metric when metrics is set.
func compare(w io.Writer, old, cur *report, maxRegress float64, metrics, metricsOnly bool, skip []string) bool {
	if old.Quick != cur.Quick || old.Seed != cur.Seed {
		fmt.Fprintf(w, "note: configs differ (quick %v/%v, seed %d/%d); timings are not directly comparable\n",
			old.Quick, cur.Quick, old.Seed, cur.Seed)
	}

	ratio := 0.0
	if old.WallSeconds > 0 {
		ratio = cur.WallSeconds / old.WallSeconds
	}
	fmt.Fprintf(w, "wall: %.2fs -> %.2fs (%.2fx baseline, go %s -> %s)\n",
		old.WallSeconds, cur.WallSeconds, ratio, old.GoVersion, cur.GoVersion)

	oldExp := map[string]experimentReport{}
	for _, e := range old.Experiments {
		oldExp[e.ID] = e
	}
	for _, e := range cur.Experiments {
		prev, ok := oldExp[e.ID]
		if !ok {
			fmt.Fprintf(w, "  %-22s new experiment (%.2fs)\n", e.ID, e.Seconds)
			continue
		}
		r := 0.0
		if prev.Seconds > 0 {
			r = e.Seconds / prev.Seconds
		}
		fmt.Fprintf(w, "  %-22s %6.2fs -> %6.2fs (%.2fx)\n", e.ID, prev.Seconds, e.Seconds, r)
	}

	failed := false
	if cur.Failures > old.Failures {
		fmt.Fprintf(w, "FAIL: %d experiment failures (baseline had %d)\n", cur.Failures, old.Failures)
		failed = true
	}
	if !metricsOnly && old.WallSeconds > 0 && ratio > maxRegress {
		fmt.Fprintf(w, "FAIL: wall time %.2fx baseline exceeds -max-regress %.2f\n", ratio, maxRegress)
		failed = true
	}
	if metrics {
		failed = diffMetrics(w, old, cur, skip) || failed
	}
	if !failed {
		fmt.Fprintln(w, "within tolerance")
	}
	return failed
}

// splitPatterns parses the -skip flag into its pattern list.
func splitPatterns(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// skipped reports whether an experiment/metric pair matches any -skip
// pattern. A malformed pattern matches nothing (path.Match errors are
// treated as no-match, not fatal).
func skipped(patterns []string, expID, metric string) bool {
	name := expID + "/" + metric
	for _, p := range patterns {
		if ok, err := path.Match(p, name); err == nil && ok {
			return true
		}
	}
	return false
}

// diffMetrics walks the baseline and reports every headline metric that
// changed, and every experiment or metric that vanished, between the
// runs. With identical seed/quick settings the suite is deterministic, so
// any drift is a behavior change worth reading, and a missing result is a
// check that silently stopped running. Metrics only the new report has
// are not compared.
func diffMetrics(w io.Writer, old, cur *report, skip []string) bool {
	curExp := map[string]experimentReport{}
	for _, e := range cur.Experiments {
		curExp[e.ID] = e
	}
	bad := false
	for _, prev := range old.Experiments {
		e, ok := curExp[prev.ID]
		if !ok {
			fmt.Fprintf(w, "MISSING: experiment %s is in the baseline but not in the new report\n", prev.ID)
			bad = true
			continue
		}
		keys := make([]string, 0, len(prev.Metrics))
		for k := range prev.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if skipped(skip, prev.ID, k) {
				continue
			}
			v, has := e.Metrics[k]
			switch {
			case !has:
				fmt.Fprintf(w, "MISSING: metric %s/%s is in the baseline but not in the new report\n", prev.ID, k)
				bad = true
			case v != prev.Metrics[k]:
				fmt.Fprintf(w, "METRIC DRIFT: %s/%s %.6f -> %.6f\n", prev.ID, k, prev.Metrics[k], v)
				bad = true
			}
		}
	}
	return bad
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "gpuleak-bench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, rep.Schema)
	}
	return &rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
