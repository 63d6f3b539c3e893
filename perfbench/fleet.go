package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"time"

	"gpuleak/internal/obs"
	"gpuleak/internal/parallel"
	"gpuleak/internal/serve"
	"gpuleak/internal/sim"
)

// fleet is one in-process gpuleakd: a serve.Server behind a loopback
// httptest.Server, and the client the workloads send through.
type fleet struct {
	srv *serve.Server
	ts  *httptest.Server
	tr  *http.Transport
	hc  *http.Client
}

// newFleet builds the server with gpuleakd's shipped flag defaults.
func newFleet() *fleet {
	metrics := obs.NewMetrics()
	parallel.ObserveWith(metrics)
	srv := serve.NewServer(serve.Options{
		Shards:          4,
		CachePerShard:   8,
		WorkersPerShard: 2,
		QueuePerShard:   8,
		TrainRepeats:    2,
		RequestTimeout:  2 * time.Minute,
		Metrics:         metrics,
		MaxSessions:     64,
		BatchWindow:     sim.Time((8 * time.Millisecond).Microseconds()),
		BatchMax:        16,
		Pacer: func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		},
		SessionTimer: func(reap func()) func() {
			t := time.AfterFunc(30*time.Second, reap)
			return func() { t.Stop() }
		},
	})
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &fleet{srv: srv, ts: httptest.NewServer(srv), tr: tr, hc: &http.Client{Transport: tr}}
}

// close drains the server and waits for every handler to return.
func (f *fleet) close() {
	f.tr.CloseIdleConnections()
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // ts.Close already waited for every handler
	f.srv.Close()
}

// post sends body as JSON and decodes a 2xx JSON answer into out. first is
// when the first response byte arrived.
func (f *fleet) post(path string, body, out any) (first time.Time, err error) {
	b, err := json.Marshal(body)
	if err != nil {
		return first, err
	}
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.ts.URL+path, bytes.NewReader(b))
	if err != nil {
		return first, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(req)
	if err != nil {
		return first, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return first, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return first, fmt.Errorf("POST %s: decoding answer: %w", path, err)
	}
	return first, nil
}

// streamOut is one SSE session as the client read it.
type streamOut struct {
	firstKey time.Time // zero when no key frame came
	frames   int
	events   []serve.StreamEventData // key and retract frames, in order
	result   serve.EavesdropResponse
}

// session creates a streaming session and reads its SSE stream to the
// closing result frame.
func (f *fleet) session(req serve.EavesdropRequest) (streamOut, error) {
	var out streamOut
	var created serve.SessionResponse
	if _, err := f.post("/v1/sessions", req, &created); err != nil {
		return out, err
	}
	resp, err := f.hc.Get(f.ts.URL + created.Stream)
	if err != nil {
		return out, fmt.Errorf("GET %s: %w", created.Stream, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("GET %s: status %d: %s", created.Stream, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	br := bufio.NewReader(resp.Body)
	var event, data string
	for {
		l, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return out, fmt.Errorf("stream %s ended without a result frame", created.ID)
			}
			return out, fmt.Errorf("reading stream %s: %w", created.ID, err)
		}
		l = strings.TrimRight(l, "\r\n")
		switch {
		case strings.HasPrefix(l, "event: "):
			event = l[len("event: "):]
		case strings.HasPrefix(l, "data: "):
			data = l[len("data: "):]
		case l == "" && event != "":
			out.frames++
			switch event {
			case "key", "retract":
				if event == "key" && out.firstKey.IsZero() {
					out.firstKey = time.Now()
				}
				var ev serve.StreamEventData
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return out, fmt.Errorf("decoding %s frame: %w", event, err)
				}
				out.events = append(out.events, ev)
			case "result":
				if err := json.Unmarshal([]byte(data), &out.result); err != nil {
					return out, fmt.Errorf("decoding result frame: %w", err)
				}
				return out, nil
			case "error":
				return out, fmt.Errorf("stream %s: error frame: %s", created.ID, data)
			}
			event, data = "", ""
		}
	}
}

// scrape reads the server's /metrics JSON snapshot.
func (f *fleet) scrape() (map[string]float64, error) {
	resp, err := f.hc.Get(f.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	snap := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// counterDelta is after[k]-before[k] for a /metrics counter.
func counterDelta(before, after map[string]float64, k string) float64 {
	return after[k] - before[k]
}
