package server

// Per-tenant fault injection, end to end: a tenant configured with
// storage faults is served from its own clone of the database, so its
// failures — a degraded clean-answer ladder, hard 5xx errors — never
// touch a healthy tenant sharing the same server.

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"

	"conquer/internal/metrics"
	"conquer/internal/storage"
	"conquer/internal/testdb"
)

// figure2Store returns the paper's Figure 2 order/customer database.
func figure2Store(t testing.TB) *storage.DB {
	t.Helper()
	return testdb.Figure2().Store
}

func faultedConfig() Config {
	return Config{
		Tenants: []TenantConfig{
			{Name: "healthy", Key: "healthy-key", Preset: "standard"},
			// Insert faults make candidate materialization fail with a
			// budget error: a rung that runs on the candidates degrades,
			// while one that answers from a query over the dirty store
			// (the rewriting, a lineage) still answers.
			{Name: "flaky-clean", Key: "flaky-clean-key", Preset: "standard",
				MaxConcurrent: 1,
				Faults:        []FaultRule{{Op: "insert", Error: "budget"}}},
			// Scan faults on customer break plain queries outright — the
			// hard-5xx tenant.
			{Name: "flaky-query", Key: "flaky-query-key", Preset: "standard",
				MaxConcurrent: 1,
				Faults:        []FaultRule{{Table: "customer", Op: "scan", Error: "internal"}}},
		},
		MaxConcurrent: 4,
		MaxQueue:      64,
		Registry:      metrics.NewRegistry(),
	}
}

// The faulted tenant's clean-answer ladder degrades — the self-join is
// outside the rewritable class, exact fails on the injected budget fault,
// Monte-Carlo answers — and the response records the degradation instead
// of failing. Exact runs on the candidates because the lineage, 9 pairs of
// orders, outgrows the 2 worlds of its 2 candidates; Monte-Carlo's holds 32
// worlds, so it answers from the lineage and materializes nothing.
func TestFaultedTenantDegradesLadder(t *testing.T) {
	srv, err := New(figure2Store(t), faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, "POST", "/v1/clean", "flaky-clean-key",
		queryRequest{SQL: "select a.orderid, b.orderid from orders a, orders b"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded, not failed): %s", rec.Code, rec.Body.String())
	}
	var resp CleanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "monte-carlo" {
		t.Errorf("method = %q, want monte-carlo", resp.Method)
	}
	if want := []string{"rewrite(not-rewritable)", "exact(budget)"}; !slices.Equal(resp.Degraded, want) {
		t.Errorf("degradation chain %v, want %v", resp.Degraded, want)
	}
	if len(resp.Answers) == 0 {
		t.Error("degraded evaluation returned no answers")
	}
}

// The scan-faulted tenant's plain queries fail hard with 500.
func TestFaultedTenantQuery500(t *testing.T) {
	srv, err := New(figure2Store(t), faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, srv, "POST", "/v1/query", "flaky-query-key",
		queryRequest{SQL: "select id from customer"})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if b := decodeError(t, rec); b.Reason != "internal" {
		t.Errorf("reason = %q, want internal", b.Reason)
	}
}

// Fault isolation end to end: while both faulted tenants hammer the
// server, every healthy-tenant request still answers 200 from pristine
// data. Per-tenant clones make cross-tenant corruption structurally
// impossible; this test proves the wiring delivers it.
func TestFaultIsolationUnderConcurrency(t *testing.T) {
	srv, err := New(figure2Store(t), faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	var wg sync.WaitGroup
	for _, key := range []string{"flaky-clean-key", "flaky-query-key"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				doJSON(t, srv, "POST", "/v1/query", key, queryRequest{SQL: "select id from customer"})
			}
		}(key)
	}

	type outcome struct {
		code int
		body string
	}
	results := make(chan outcome, rounds)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rec := doJSON(t, srv, "POST", "/v1/query", "healthy-key",
				queryRequest{SQL: "select id, name from customer where balance > 10000"})
			results <- outcome{rec.Code, rec.Body.String()}
		}
	}()
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Errorf("healthy tenant degraded by neighbor's faults: status = %d: %s", r.code, r.body)
		}
	}

	// The healthy tenant's data is untouched: its answers match a fresh
	// un-faulted server over the same fixture.
	fresh, err := New(figure2Store(t), oneTenantFigure2())
	if err != nil {
		t.Fatal(err)
	}
	want := doJSON(t, fresh, "POST", "/v1/query", "acme-key",
		queryRequest{SQL: "select id, name from customer where balance > 10000"})
	got := doJSON(t, srv, "POST", "/v1/query", "healthy-key",
		queryRequest{SQL: "select id, name from customer where balance > 10000"})
	var wantResp, gotResp QueryResponse
	if err := json.Unmarshal(want.Body.Bytes(), &wantResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &gotResp); err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(wantResp.Rows)
	g, _ := json.Marshal(gotResp.Rows)
	if string(w) != string(g) {
		t.Errorf("healthy tenant rows drifted:\ngot:  %s\nwant: %s", g, w)
	}
}

func oneTenantFigure2() Config {
	return Config{
		Tenants:  []TenantConfig{{Name: "acme", Key: "acme-key", Preset: "standard"}},
		Registry: metrics.NewRegistry(),
	}
}
