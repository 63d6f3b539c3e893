package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// ledger is the run's JSONL output. Every record is one complete line,
// written with a single write call as soon as it is known, so a run that
// is interrupted leaves a file whose complete lines all parse; at most
// the final line is torn.
type ledger struct {
	f   *os.File
	err error
}

// entry is one ledger line.
type entry struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

func openLedger(path string) (*ledger, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("creating ledger directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating ledger: %w", err)
	}
	return &ledger{f: f}, nil
}

// line encodes one record as a newline-terminated JSON object.
func line(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding %s record: %w", kind, err)
	}
	b, err := json.Marshal(entry{Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("encoding %s record: %w", kind, err)
	}
	return append(b, '\n'), nil
}

// record appends one line. The first error sticks and is reported by close.
func (l *ledger) record(kind string, v any) {
	if l == nil || l.err != nil {
		return
	}
	b, err := line(kind, v)
	if err == nil {
		_, err = l.f.Write(b)
	}
	l.err = err
}

// metrics records each metric as its own line.
func (l *ledger) metrics(ms []metric) {
	for _, m := range ms {
		l.record("metric", m)
	}
}

// opRecord is one timed op in the ledger, times in microseconds from the
// start of the window.
type opRecord struct {
	Op    int    `json:"op"`
	Sent  int64  `json:"sent_us"`
	First int64  `json:"first_us,omitempty"`
	Done  int64  `json:"done_us"`
	Err   string `json:"err,omitempty"`
}

// ops writes the window's samples.
func (l *ledger) ops(ss []sample) {
	recs := make([]any, len(ss))
	for i, s := range ss {
		r := opRecord{Op: s.op, Sent: s.sent.Microseconds(),
			First: s.first.Microseconds(), Done: s.done.Microseconds()}
		if s.err != nil {
			r.Err = s.err.Error()
		}
		recs[i] = r
	}
	l.lines("op", recs)
}

// spans writes the recorded spans.
func (l *ledger) spans(ss []span) {
	recs := make([]any, len(ss))
	for i := range ss {
		recs[i] = &ss[i]
	}
	l.lines("span", recs)
}

// lines writes many records in chunks of whole lines.
func (l *ledger) lines(kind string, recs []any) {
	if l == nil || l.err != nil {
		return
	}
	var buf bytes.Buffer
	for i := range recs {
		b, err := line(kind, recs[i])
		if err != nil {
			l.err = err
			return
		}
		buf.Write(b)
		if buf.Len() >= 64<<10 || i == len(recs)-1 {
			if _, err := l.f.Write(buf.Bytes()); err != nil {
				l.err = err
				return
			}
			buf.Reset()
		}
	}
}

func (l *ledger) close() error {
	err := l.err
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing ledger %s: %w", l.f.Name(), err)
	}
	return nil
}

// provenance identifies the run: host, toolchain, code and seeds. The
// commit is known only when the benchmark was built inside a git
// checkout; the binary's digest identifies the code either way. The
// workload seed is the benchmark's argument; the program under test only
// ever sees the inputs generated from it.
func provenance(workload string, seed int64, seconds, trace int) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"schema":       "gpuleak-perfbench/v1",
		"workload":     workload,
		"seed":         seed,
		"recheck_seed": recheckSeed,
		"seconds":      seconds,
		"trace":        trace,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"commit":       commit,
		"binary":       binaryDigest(),
		"dirty":        modified,
		"started":      time.Now().UTC().Format(time.RFC3339),
	}
}

// binaryDigest is the SHA-256 of the running executable.
func binaryDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the CPU model name on Linux ("unknown" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
