// Package load is the load-generation harness behind cmd/loadgen and the
// CI load-smoke test: it replays a statement pool against a conquerd
// server at a configurable rate and concurrency, and reports latency
// percentiles plus the shed rate. Requests are raw HTTP with no retries —
// a retrying client would re-submit shed work and hide exactly the
// behavior the harness exists to measure.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the server under test (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// APIKey authenticates every request.
	APIKey string
	// Queries is the statement pool; workers replay it round-robin.
	Queries []string
	// Concurrency is the number of worker goroutines (default 1).
	Concurrency int
	// QPS is the aggregate open-loop request rate across all workers;
	// 0 runs closed-loop (each worker fires as soon as the previous
	// request returns — the overload mode).
	QPS float64
	// Duration bounds the run (default 5s).
	Duration time.Duration
}

// Result aggregates one load run; cmd/loadgen prints it as JSON.
type Result struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Shed   int `json:"shed"`   // 429 responses
	Errors int `json:"errors"` // transport failures and non-200/429 statuses
	// StatusCounts maps status code → count over every response.
	StatusCounts map[int]int `json:"status_counts"`
	// ShedRate is Shed / Sent.
	ShedRate float64 `json:"shed_rate"`
	// Latency percentiles over admitted (200) responses only — shed
	// responses return in microseconds and would flatter the numbers.
	P50Micros int64 `json:"p50_us"`
	P90Micros int64 `json:"p90_us"`
	P99Micros int64 `json:"p99_us"`
	MaxMicros int64 `json:"max_us"`
	// ElapsedMicros is the whole run's wall time; RPS is Sent over it.
	ElapsedMicros int64   `json:"elapsed_us"`
	RPS           float64 `json:"rps"`
	// RetryAfterSeen counts shed responses that carried a Retry-After
	// header — the server contract says all of them must.
	RetryAfterSeen int `json:"retry_after_seen"`
}

// worker-local tally, merged after the run so the hot path takes no
// locks.
type tally struct {
	statuses   [600]int
	latencies  []time.Duration
	sent       int
	transport  int
	retryAfter int
}

// Run executes the load described by opts and aggregates the outcome.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.BaseURL == "" || opts.APIKey == "" || len(opts.Queries) == 0 {
		return nil, fmt.Errorf("load: BaseURL, APIKey and Queries are required")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	// Open-loop pacing: a shared token channel filled at QPS. Closed
	// loop (QPS 0) skips tokens entirely.
	var tokens chan struct{}
	if opts.QPS > 0 {
		tokens = make(chan struct{})
		interval := time.Duration(float64(time.Second) / opts.QPS)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					case <-runCtx.Done():
						return
					default:
						// Workers saturated: drop the token rather than
						// letting a backlog burst later.
					}
				}
			}
		}()
	}

	tallies := make([]tally, opts.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			for i := w; ; i++ {
				if runCtx.Err() != nil {
					return
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-runCtx.Done():
						return
					}
				}
				oneRequest(runCtx, opts, opts.Queries[i%len(opts.Queries)], tl)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{StatusCounts: make(map[int]int)}
	var lats []time.Duration
	for i := range tallies {
		tl := &tallies[i]
		res.Sent += tl.sent
		res.Errors += tl.transport
		res.RetryAfterSeen += tl.retryAfter
		lats = append(lats, tl.latencies...)
		for code, n := range tl.statuses {
			if n > 0 {
				res.StatusCounts[code] += n
			}
		}
	}
	res.OK = res.StatusCounts[http.StatusOK]
	res.Shed = res.StatusCounts[http.StatusTooManyRequests]
	for code, n := range res.StatusCounts {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			res.Errors += n
		}
	}
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50Micros = percentile(lats, 0.50).Microseconds()
	res.P90Micros = percentile(lats, 0.90).Microseconds()
	res.P99Micros = percentile(lats, 0.99).Microseconds()
	if n := len(lats); n > 0 {
		res.MaxMicros = lats[n-1].Microseconds()
	}
	res.ElapsedMicros = elapsed.Microseconds()
	if elapsed > 0 {
		res.RPS = float64(res.Sent) / elapsed.Seconds()
	}
	return res, nil
}

// oneRequest issues a single /v1/query call and records its outcome.
// Cancellation mid-request (the run deadline) is not counted at all —
// it is the harness giving up, not the server failing.
func oneRequest(ctx context.Context, opts Options, sql string, tl *tally) {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		tl.transport++
		return
	}
	req, err := http.NewRequestWithContext(ctx, "POST", opts.BaseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		tl.transport++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Api-Key", opts.APIKey)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			tl.sent++
			tl.transport++
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	tl.sent++
	code := resp.StatusCode
	if code >= 0 && code < len(tl.statuses) {
		tl.statuses[code]++
	}
	if code == http.StatusOK {
		tl.latencies = append(tl.latencies, time.Since(start))
	}
	if code == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "" {
		tl.retryAfter++
	}
}

// percentile returns the q-th percentile of sorted latencies, 0 when
// empty: by nearest rank, the ⌈q·n⌉-th smallest. A product a few ulps
// above an integer counts as that integer (0.07 × 100 is
// 7.000000000000001, rank 7).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	x := q * float64(len(sorted))
	idx := int(math.Ceil(x-x*1e-12)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
