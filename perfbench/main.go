// Command perfbench is the repository benchmark. It drives an in-process
// serve.Server over loopback HTTP (or, for exp-sweep, the experiment
// registry directly) for one named workload, measures host wall time, and
// checks every sampled output against the library path.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload eavesdrop-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays a seed-chosen sample of the workload's operations through the
// layers' public functions with timing spans around each call, and prints
// the per-layer metrics. The last line of standard output is always one
// JSON object {correct, attempted, failed, metrics}. A ledger of every
// metric and span, one JSON object per line, is written under --out; a
// run cut short still leaves a parseable ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// recheckSeed is the documented second workload seed: a change that claims
// a gain re-checks its claim on this seed, which must not have been used
// while the change was written.
const recheckSeed = 104729

// clients is the client count of the two-client closed loops:
// the benchmark host has nproc = 2, and more client goroutines than CPUs
// would measure the client, not the server.
const clients = 2

// env is what one run knows about itself.
type env struct {
	seed   int64
	window time.Duration
	trace  bool
	led    *ledger
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: the operations attempted and
// failed (a failure is a non-2xx answer, a stream without a result frame,
// or an output that differs from the library path), and its metrics.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: value, Unit: unit})
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*env) (*outcome, error){
	"eavesdrop-hot": runEavesdropHot,
	"train-sweep":   runTrainSweep,
	"stream-robust": runStreamRobust,
	"exp-sweep":     runExpSweep,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: eavesdrop-hot, train-sweep, stream-robust or exp-sweep")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "ledger"), "directory for the JSONL ledger")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.jsonl", *workload, *seed, *traceFlag))
	led, err := openLedger(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.led = led
	led.record("provenance", provenance(*workload, *seed, *seconds, *traceFlag))

	o, err := drive(e)
	if err != nil {
		led.record("error", map[string]string{"error": err.Error()})
		led.close()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	correct := o.failed == 0 && o.attempted > 0
	led.record("result", map[string]any{"correct": correct, "attempted": o.attempted, "failed": o.failed})
	if err := led.close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := resultLine(correct, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range o.metrics {
		fmt.Printf("%-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Println(line)
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed the output check\n", *workload, o.failed, o.attempted)
		return 1
	}
	return 0
}

// resultLine renders the final result object. Metric names must be unique.
func resultLine(correct bool, o *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		if _, dup := ms[m.Name]; dup {
			return "", fmt.Errorf("metric %q reported twice", m.Name)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, o.attempted, o.failed, ms})
	return string(b), err
}

// errMismatch marks an output that differs from the library path.
var errMismatch = errors.New("output differs from the library path")
