package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// bigStore builds a clean table of n rows — enough for the executor's
// amortized context poll (every 256 rows) to actually fire, which the
// timeout and cancellation tests depend on.
func bigStore(t testing.TB, n int) *storage.DB {
	t.Helper()
	store := storage.NewDB()
	rel := schema.MustRelation("big",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "val", Type: value.KindFloat},
	)
	tab := store.MustCreateTable(rel)
	for i := 0; i < n; i++ {
		tab.MustInsert(value.Int(int64(i)), value.Float(float64(i%97)))
	}
	return store
}

// slowInjector stretches query latency by sleeping per scanned row —
// the single-CPU-safe way to simulate slow queries: wall time grows
// without burning the one core the test host has.
type slowInjector struct{ perRow time.Duration }

func (s slowInjector) Fail(_ string, op storage.Op) error {
	if op == storage.OpScan {
		time.Sleep(s.perRow)
	}
	return nil
}

// doJSON posts body to path with the given API key and returns the
// recorder.
func doJSON(t testing.TB, srv *Server, method, path, key string, body any) *httptest.ResponseRecorder {
	t.Helper()
	req := newJSONRequest(t, method, path, key, body)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func newJSONRequest(t testing.TB, method, path, key string, body any) *http.Request {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	return req
}

func decodeError(t testing.TB, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, rec.Body.String())
	}
	return body
}

func oneTenant(reg *metrics.Registry) Config {
	return Config{
		Tenants:  []TenantConfig{{Name: "acme", Key: "acme-key", Preset: "standard"}},
		Registry: reg,
	}
}

func TestAuth(t *testing.T) {
	srv, err := New(bigStore(t, 10), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	body := queryRequest{SQL: "select id from big"}

	rec := doJSON(t, srv, "POST", "/v1/query", "", body)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("no key: status = %d, want 401", rec.Code)
	}
	if b := decodeError(t, rec); b.Reason != "unauthorized" {
		t.Errorf("no key: reason = %q", b.Reason)
	}

	rec = doJSON(t, srv, "POST", "/v1/query", "wrong-key", body)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("bad key: status = %d, want 401", rec.Code)
	}

	// Bearer form of the same key must also work.
	req := newJSONRequest(t, "POST", "/v1/query", "", body)
	req.Header.Set("Authorization", "Bearer acme-key")
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Errorf("bearer key: status = %d, want 200: %s", rr.Code, rr.Body.String())
	}

	rec = doJSON(t, srv, "POST", "/v1/query", "acme-key", body)
	if rec.Code != http.StatusOK {
		t.Errorf("good key: status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

func TestBadRequests(t *testing.T) {
	srv, err := New(bigStore(t, 10), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		raw  string
	}{
		{"malformed JSON", "{not json"},
		{"trailing data", `{"sql":"select id from big"} {"sql":"select val from big"} garbage`},
		{"trailing value", `{"sql":"select id from big"} {"sql":"select val from big"}`},
		{"trailing brace", `{"sql":"select id from big"}}`},
		{"empty sql", `{"sql": ""}`},
		{"parse error", `{"sql": "selec id from big"}`},
		{"unknown table", `{"sql": "select id from nope"}`},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/query", "/v1/clean"} {
			req := httptest.NewRequest("POST", path, strings.NewReader(tc.raw))
			req.Header.Set("X-Api-Key", "acme-key")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400: %s", path, tc.name, rec.Code, rec.Body.String())
			}
			if b := decodeError(t, rec); b.Reason != "invalid" {
				t.Errorf("%s %s: reason = %q, want invalid", path, tc.name, b.Reason)
			}
		}
	}
	// Space after the object is not trailing data.
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader("\n {\"sql\":\"select id from big\"} \r\n\t "))
	req.Header.Set("X-Api-Key", "acme-key")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("a body with surrounding space: status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestStatusTable pins the complete reason → status mapping: a taxonomy
// addition that forgets the serving layer must fail here, not surface as
// a surprise 500 in production.
func TestStatusTable(t *testing.T) {
	want := map[string]int{
		"":             200,
		"invalid":      400,
		"unauthorized": 401,
		"candidates":   413,
		"model":        422,
		"shed":         429,
		"budget":       429,
		"canceled":     499,
		"internal":     500,
		"shutdown":     503,
		"deadline":     504,
		"never-heard":  500,
	}
	for reason, status := range want {
		if got := StatusFor(reason); got != status {
			t.Errorf("StatusFor(%q) = %d, want %d", reason, got, status)
		}
	}
	for status := 100; status < 600; status++ {
		retryable := status == 429 || status == 503
		if Retryable(status) != retryable {
			t.Errorf("Retryable(%d) = %v, want %v", status, Retryable(status), retryable)
		}
	}
}

// TestByteIdentity is the serving-layer soundness check: an admitted
// query's rows, serialized by the server, must be byte-identical to the
// same query run directly against the engine and serialized through the
// same converter. Admission control may refuse work; it must never
// change answers.
func TestByteIdentity(t *testing.T) {
	store := bigStore(t, 500)
	srv, err := New(store, oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"select id, val from big where val > 50",
		"select val, count(*) from big group by val order by val",
		"select sum(val) from big",
	}
	lim, err := Preset("standard")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(store, engine.Options{Limits: lim})
	for _, q := range queries {
		rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: q})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", q, rec.Code, rec.Body.String())
		}
		var got struct {
			Columns []string        `json:"columns"`
			Rows    json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: response not JSON: %v", q, err)
		}
		direct, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: direct execution failed: %v", q, err)
		}
		want, err := json.Marshal(rowsToAny(direct.Rows))
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Rows) != string(want) {
			t.Errorf("%s:\nserver: %s\ndirect: %s", q, got.Rows, want)
		}
	}
}

// A client that has already hung up gets 499, whichever side of
// admission the cancellation lands on.
func TestClientCancel499(t *testing.T) {
	srv, err := New(bigStore(t, 600), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := newJSONRequest(t, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"}).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want 499: %s", rec.Code, rec.Body.String())
	}
	if b := decodeError(t, rec); b.Reason != "canceled" {
		t.Errorf("reason = %q, want canceled", b.Reason)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("client cancellation must not invite a retry")
	}
}

// The engine's own per-tenant timeout surfaces as 504 — attributed to
// the server, not the client — and is not marked retryable.
func TestServerDeadline504(t *testing.T) {
	store := bigStore(t, 600)
	store.SetInjector(slowInjector{perRow: 200 * time.Microsecond})
	cfg := Config{
		Tenants: []TenantConfig{{
			Name: "acme", Key: "acme-key",
			Limits: &exec.Limits{Timeout: 20 * time.Millisecond},
		}},
		Registry: metrics.NewRegistry(),
	}
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if b := decodeError(t, rec); b.Reason != "deadline" {
		t.Errorf("reason = %q, want deadline", b.Reason)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("a deadline response must not invite a retry")
	}
}

// An exhausted execution budget is a retryable resource condition: 429
// with Retry-After.
func TestBudget429(t *testing.T) {
	cfg := Config{
		Tenants: []TenantConfig{{
			Name: "acme", Key: "acme-key",
			Limits: &exec.Limits{MaxBufferedRows: 5},
		}},
		Registry: metrics.NewRegistry(),
	}
	srv, err := New(bigStore(t, 500), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id, val from big order by val"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	b := decodeError(t, rec)
	if b.Reason != "budget" {
		t.Errorf("reason = %q, want budget", b.Reason)
	}
	if rec.Header().Get("Retry-After") == "" || b.RetryAfterMS <= 0 {
		t.Errorf("budget response missing retry hints: header=%q body=%+v",
			rec.Header().Get("Retry-After"), b)
	}
}

// Graceful drain: in-flight work finishes with 200, requests arriving
// after drain begins get 503, health flips to draining, and Drain
// returns cleanly inside the soft window.
func TestDrainGraceful(t *testing.T) {
	store := bigStore(t, 300)
	store.SetInjector(slowInjector{perRow: 200 * time.Microsecond}) // ~60ms per scan
	cfg := oneTenant(metrics.NewRegistry())
	cfg.DrainTimeout = 5 * time.Second
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var inflight *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflight = doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"})
	}()
	time.Sleep(20 * time.Millisecond) // let it get past admission

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	time.Sleep(10 * time.Millisecond)

	if rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status = %d, want 503: %s", rec.Code, rec.Body.String())
	} else if b := decodeError(t, rec); b.Reason != "shutdown" {
		t.Errorf("post-drain request: reason = %q, want shutdown", b.Reason)
	}
	if rec := doJSON(t, srv, "GET", "/healthz", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status = %d, want 503", rec.Code)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if inflight.Code != http.StatusOK {
		t.Errorf("in-flight query during graceful drain: status = %d, want 200: %s",
			inflight.Code, inflight.Body.String())
	}
	// Drain is idempotent.
	if err := srv.Drain(); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// Hard drain: when the soft window passes, in-flight work is canceled
// with qerr.ErrShutdown and surfaces as 503 (not 499 — the client did
// nothing wrong).
func TestDrainCancelsInflight(t *testing.T) {
	store := bigStore(t, 8000)
	store.SetInjector(slowInjector{perRow: 200 * time.Microsecond}) // >= 1.6s per scan
	cfg := oneTenant(metrics.NewRegistry())
	// The scan sees the cancellation within 128 rows, i.e. 128 sleeps: on a
	// loaded host one such sleep takes a millisecond or more, so a 100 ms
	// window to unwind in was sometimes too short.
	cfg.DrainTimeout = 400 * time.Millisecond
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var rec *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec = doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled in-flight query: status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if b := decodeError(t, rec); b.Reason != "shutdown" {
		t.Errorf("reason = %q, want shutdown", b.Reason)
	}
}

// The projected-memory watermark sheds once the cost model has evidence
// that another concurrent query would cross it.
func TestMemoryWatermarkSheds(t *testing.T) {
	store := bigStore(t, 200)
	cfg := Config{
		Tenants:             []TenantConfig{{Name: "acme", Key: "acme-key", Preset: "standard"}},
		MaxConcurrent:       2,
		MaxQueue:            50,
		MemoryWatermarkRows: 300,
		Registry:            metrics.NewRegistry(),
	}
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cost model: a sort buffers all 200 rows, so the EWMA of
	// buffered peaks lands at ~200 — one query fits under the 300-row
	// watermark, two concurrent do not.
	if rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id, val from big order by val"}); rec.Code != http.StatusOK {
		t.Fatalf("seed query: status = %d: %s", rec.Code, rec.Body.String())
	}

	store.SetInjector(slowInjector{perRow: 500 * time.Microsecond}) // hold the first query in flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id, val from big order by val"})
	}()
	time.Sleep(20 * time.Millisecond)
	rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id, val from big order by val"})
	wg.Wait()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second concurrent query: status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	b := decodeError(t, rec)
	if b.Reason != "shed" {
		t.Errorf("reason = %q, want shed", b.Reason)
	}
	if !strings.Contains(b.Error, "watermark") {
		t.Errorf("shed body should name the watermark: %q", b.Error)
	}
}

// The cost model sees what a query really buffered: a self-join holds its
// whole build side until the last probe closes, however many shards and
// workers drained it, so the first observation seeds avgRows with the
// build side's row count at the default shard count.
func TestAdmissionSeesTheRealBufferedPeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // default shards: 4
	const rows = 8 * exec.DefaultMorselSize
	cfg := oneTenant(metrics.NewRegistry())
	cfg.Parallelism = 4
	srv, err := New(bigStore(t, rows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shards := srv.tenants["acme-key"].eng.Options().Shards; shards != 4 {
		t.Fatalf("tenant engine runs %d shards, want 4", shards)
	}
	rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select a.id from big a, big b where a.id = b.id"})
	if rec.Code != http.StatusOK {
		t.Fatalf("join: status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := srv.cost.avgRows.Load(); got != rows {
		t.Errorf("cost model avgRows = %d, want the build side's %d rows", got, rows)
	}
}

// Sanity-check /v1/clean end to end over the paper's Figure 2 database,
// including its query-log line: one per request, written by the evaluator
// on the tenant's engine — so with the rung that answered (the rewriting,
// the ladder's first), the server's parallelism, the engine's resolved
// shard count, and the statement hash /v1/query logs for the same text.
func TestCleanEndpoint(t *testing.T) {
	var logBuf strings.Builder
	cfg := Config{
		Tenants:     []TenantConfig{{Name: "acme", Key: "acme-key", Limits: &exec.Limits{MaxCandidates: 1}}},
		Registry:    metrics.NewRegistry(),
		QueryLog:    metrics.NewQueryLog(&logBuf),
		Parallelism: 3,
	}
	srv, err := New(figure2Store(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "select id from customer where balance > 10000"
	// post sends sql to path and returns the response and its one log line.
	post := func(path string) (*httptest.ResponseRecorder, metrics.QueryRecord) {
		t.Helper()
		logBuf.Reset()
		rec := doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: sql})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, rec.Code, rec.Body.String())
		}
		lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
		var r metrics.QueryRecord
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &r) != nil {
			t.Fatalf("%s: query log %q, want one JSON line", path, logBuf.String())
		}
		return rec, r
	}
	rec, clean := post("/v1/clean")
	var resp CleanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if len(resp.Answers) != 2 || resp.Method != "rewrite" {
		t.Fatalf("%d answers by %q, want 2 by the rewriting", len(resp.Answers), resp.Method)
	}
	for _, a := range resp.Answers {
		if a.Prob <= 0 || a.Prob > 1 {
			t.Errorf("answer probability out of range: %+v", a)
		}
	}
	shards := srv.tenants["acme-key"].eng.Options().Shards
	if clean.Method != "rewrite" || clean.Rows != 2 || clean.Parallelism != 3 || clean.Shards != shards || clean.Tenant != "acme" {
		t.Errorf("clean query log line %+v: want method rewrite, 2 rows, par 3, the engine's %d shards, tenant acme", clean, shards)
	}
	if _, plain := post("/v1/query"); plain.SQLHash != clean.SQLHash {
		t.Errorf("the same text hashes to %s on /v1/query and %s on /v1/clean", plain.SQLHash, clean.SQLHash)
	}
	// A negative sample count is the client's error, not a silent default.
	rec = doJSON(t, srv, "POST", "/v1/clean", "acme-key", queryRequest{SQL: sql, Samples: -5})
	if b := decodeError(t, rec); rec.Code != http.StatusBadRequest || b.Reason != "invalid" {
		t.Errorf("samples -5: status %d, reason %q; want 400 invalid", rec.Code, b.Reason)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, err := New(bigStore(t, 10), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, srv, "POST", "/v1/query", "acme-key", queryRequest{SQL: "select id from big"}); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	rec := doJSON(t, srv, "GET", "/v1/stats", "", nil)
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Admitted != 1 || stats.InFlight != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0] != "acme" {
		t.Errorf("tenants = %v", stats.Tenants)
	}
}

func TestConfigValidation(t *testing.T) {
	store := bigStore(t, 1)
	if _, err := New(store, Config{Registry: metrics.NewRegistry()}); err == nil {
		t.Error("no tenants should be rejected")
	}
	if _, err := New(store, Config{
		Tenants:  []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
		Registry: metrics.NewRegistry(),
	}); err == nil {
		t.Error("duplicate keys should be rejected")
	}
	if _, err := New(store, Config{
		Tenants:  []TenantConfig{{Name: "a", Key: "k", Preset: "galactic"}},
		Registry: metrics.NewRegistry(),
	}); err == nil {
		t.Error("unknown preset should be rejected")
	}
}

// A tenant's cache_bytes builds that tenant's own cache: a tenants file
// naming it loads, the second identical /v1/query or /v1/clean is served
// from the cache — and says so in the response and the query log — and a
// tenant without it never is.
func TestTenantCacheBytes(t *testing.T) {
	tenants, err := LoadTenants(strings.NewReader(`{"tenants": [
		{"name": "acme", "key": "ak", "preset": "standard", "cache_bytes": 1048576},
		{"name": "beta", "key": "bk", "preset": "standard"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	srv, err := New(bigStore(t, 500), Config{Tenants: tenants, Registry: metrics.NewRegistry(), QueryLog: metrics.NewQueryLog(&logBuf)})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/query", "/v1/clean"} {
		cached := func(key string) bool {
			logBuf.Reset()
			rec := doJSON(t, srv, "POST", path, key, queryRequest{SQL: "select id, val from big where id < 5"})
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status = %d: %s", path, rec.Code, rec.Body.String())
			}
			var resp struct{ Stats QueryStats }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if logged := strings.Contains(logBuf.String(), `"cached":true`); logged != resp.Stats.Cached {
				t.Errorf("%s: response cached=%t, query log %s", path, resp.Stats.Cached, logBuf.String())
			}
			return resp.Stats.Cached
		}
		if cached("ak") {
			t.Fatalf("%s: the first execution cannot be a cache hit", path)
		}
		if !cached("ak") {
			t.Fatalf("%s: a tenant with cache_bytes should serve the repeat from its cache", path)
		}
		if cached("bk") || cached("bk") {
			t.Fatalf("%s: a tenant without cache_bytes has no cache, and must not see another tenant's", path)
		}
	}
}

func TestLoadTenants(t *testing.T) {
	doc := `{"tenants": [
		{"name": "acme", "key": "ak", "preset": "small", "max_concurrent": 2},
		{"name": "beta", "key": "bk",
		 "faults": [{"table": "big", "op": "scan", "n": 3, "error": "internal"}]}
	]}`
	tenants, err := LoadTenants(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].Name != "acme" || tenants[1].Faults[0].Op != "scan" {
		t.Errorf("parsed = %+v", tenants)
	}
	if _, err := LoadTenants(strings.NewReader(`{"tenants": []}`)); err == nil {
		t.Error("empty tenant list should be rejected")
	}
	if _, err := LoadTenants(strings.NewReader(`{"tenantz": []}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
}

func TestCostModel(t *testing.T) {
	var c costModel
	c.observe(1000, 10*time.Millisecond)
	if got := c.projectedRows(3); got != 3000 {
		t.Errorf("projectedRows(3) = %d after first observation, want 3000", got)
	}
	// The EWMA follows a shifted workload but a single outlier moves it
	// only fractionally.
	c.observe(9000, 10*time.Millisecond)
	one := c.projectedRows(1)
	if one <= 1000 || one >= 9000 {
		t.Errorf("EWMA after outlier = %d, want strictly between 1000 and 9000", one)
	}
}

func TestRetryAfterBounds(t *testing.T) {
	srv, err := New(bigStore(t, 1), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if d := srv.retryAfter(); d < 50*time.Millisecond || d > 5*time.Second {
		t.Errorf("cold retryAfter = %v, want within [50ms, 5s]", d)
	}
	srv.cost.avgLatUS.Store(int64(time.Hour / time.Microsecond))
	if d := srv.retryAfter(); d != 5*time.Second {
		t.Errorf("clamped retryAfter = %v, want 5s", d)
	}
}

// JSON has no ±Inf and no NaN, and float division produces both: a result
// holding one must be answered with the typed 500 — an ErrorBody saying
// "internal", not retryable — on both endpoints, not with a 200 and an
// empty body (json.Encoder's error used to be dropped), and not with a
// well-formed 200 that leaves the row out when it is not the first: the
// writer checks every float before its first byte. The next request is
// served as usual.
func TestUnencodableResultIsATyped500(t *testing.T) {
	srv, err := New(bigStore(t, 2000), oneTenant(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/query", "/v1/clean"} {
		for _, sql := range []string{
			"select id, val / 0.0 from big where id = 1",  // +Inf
			"select id, -val / 0.0 from big where id = 2", // -Inf
			"select id, val / 0.0 from big where id = 0",  // NaN
			// 2,000 rows (several chunks of the writer) in id order, the only
			// non-finite value in the last; val is 59 there.
			"select id, val / (id - 1999.0) from big order by id",           // +Inf
			"select id, -val / (id - 1999.0) from big order by id",          // -Inf
			"select id, (val - 59.0) / (id - 1999.0) from big order by id",  // NaN
			"select id, 1.0, val / (id - 1999.0) from big order by id desc", // +Inf, first
		} {
			rec := doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: sql})
			if rec.Code != http.StatusInternalServerError || Retryable(rec.Code) || rec.Header().Get("Retry-After") != "" {
				t.Errorf("%s %q: status %d (Retry-After %q), want a plain 500: %s", path, sql, rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
				continue
			}
			if b := decodeError(t, rec); b.Reason != "internal" || b.Status != http.StatusInternalServerError || b.Error == "" {
				t.Errorf("%s %q: body %+v, want reason internal, status 500 and a message", path, sql, b)
			}
		}
		rec := doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: "select id, val / 2.0 from big where id = 1"})
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "0.5") {
			t.Errorf("%s: a finite result after the failures: status %d: %s", path, rec.Code, rec.Body.String())
		}
		// Without the last row the same statement is finite.
		rec = doJSON(t, srv, "POST", path, "acme-key", queryRequest{SQL: "select id, val / (id - 1999.0) from big where id < 1999 order by id"})
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"rows":1999,`) {
			t.Errorf("%s: the rows before the last alone: status %d: %.200s", path, rec.Code, rec.Body.String())
		}
	}

	// The same at the writer, where the last row, the last answer's
	// probability or standard error, or the response's standard error is
	// the only float JSON cannot carry.
	rows := make([][]value.Value, 2000)
	answers := make([]core.Answer, len(rows))
	for i := range rows {
		rows[i] = []value.Value{value.Int(int64(i)), value.Float(float64(i) / 3)}
		answers[i] = core.Answer{Values: rows[i], Prob: 0.5, StdErr: 0.01}
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		last := slices.Clone(rows)
		last[len(last)-1] = []value.Value{value.Int(1999), value.Float(bad)}
		rec := httptest.NewRecorder()
		srv.writeQuery(rec, []string{"id", "v"}, last, QueryStats{Rows: len(last)})
		if b := decodeError(t, rec); rec.Code != http.StatusInternalServerError || b.Reason != "internal" {
			t.Errorf("query, last row holding %v: status %d: %s", bad, rec.Code, rec.Body.String())
		}
		for _, set := range []func(*core.Result){
			func(r *core.Result) { r.Answers[len(r.Answers)-1].Values = last[len(last)-1] },
			func(r *core.Result) { r.Answers[len(r.Answers)-1].Prob = bad },
			func(r *core.Result) { r.Answers[len(r.Answers)-1].StdErr = bad },
			func(r *core.Result) { r.StdErr = bad },
		} {
			res := &core.Result{Columns: []string{"id", "v"}, Answers: slices.Clone(answers), Method: core.MethodMonteCarlo}
			set(res)
			rec := httptest.NewRecorder()
			srv.writeClean(rec, res, QueryStats{Rows: len(res.Answers)})
			if b := decodeError(t, rec); rec.Code != http.StatusInternalServerError || b.Reason != "internal" {
				t.Errorf("clean holding %v: status %d: %s", bad, rec.Code, rec.Body.String())
			}
		}
	}
}
