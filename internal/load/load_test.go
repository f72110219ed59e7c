package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"conquer/internal/metrics"
	"conquer/internal/schema"
	"conquer/internal/server"
	"conquer/internal/storage"
	"conquer/internal/value"
)

func testStore(t testing.TB, rows int) *storage.DB {
	t.Helper()
	store := storage.NewDB()
	rel := schema.MustRelation("big",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "val", Type: value.KindFloat},
	)
	tab := store.MustCreateTable(rel)
	for i := 0; i < rows; i++ {
		tab.MustInsert(value.Int(int64(i)), value.Float(float64(i%97)))
	}
	return store
}

// slowScans stretches query latency by sleeping per scanned row, so a
// handful of closed-loop workers genuinely overloads a 1-slot server on
// a single-CPU host.
type slowScans struct{ perRow time.Duration }

func (s slowScans) Fail(_ string, op storage.Op) error {
	if op == storage.OpScan {
		time.Sleep(s.perRow)
	}
	return nil
}

func startServer(t testing.TB, cfg server.Config, store *storage.DB) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestLoadSmoke is the CI load-smoke gate: at low QPS, comfortably under
// the admission watermark, nothing is shed and the p99 stays inside a
// generous interactive bound. A regression that makes admission shed
// idle-capacity traffic — or queries an order of magnitude slower —
// fails here before any real load test runs.
func TestLoadSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := server.Config{
		Tenants:       []server.TenantConfig{{Name: "smoke", Key: "smoke-key", Preset: "standard"}},
		MaxConcurrent: 2,
		MaxQueue:      8,
		Registry:      reg,
	}
	_, ts := startServer(t, cfg, testStore(t, 500))

	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		APIKey:      "smoke-key",
		Queries:     []string{"select id, val from big where val > 50", "select sum(val) from big"},
		Concurrency: 2,
		QPS:         40,
		Duration:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent < 10 {
		t.Fatalf("smoke sent only %d requests", res.Sent)
	}
	if res.Shed != 0 || res.ShedRate != 0 {
		t.Errorf("under-watermark load shed %d/%d requests", res.Shed, res.Sent)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors under smoke load: %+v", res.Errors, res.StatusCounts)
	}
	// Tiny table, warm cache path, single-digit-ms queries: 250ms is an
	// order of magnitude of slack for CI noise.
	if res.P99Micros > 250_000 {
		t.Errorf("smoke p99 = %dµs, want <= 250ms", res.P99Micros)
	}
	if got := reg.Counter("server.shed").Load(); got != 0 {
		t.Errorf("server.shed = %d under smoke load", got)
	}
}

// Closed-loop overload against a tiny queue sheds with 429 + Retry-After
// while admitted requests still finish — the harness-level view of the
// overload contract.
func TestLoadOverloadSheds(t *testing.T) {
	store := testStore(t, 500)
	store.SetInjector(slowScans{perRow: 100 * time.Microsecond}) // ~50ms per scan
	cfg := server.Config{
		Tenants:       []server.TenantConfig{{Name: "ovl", Key: "ovl-key", Preset: "standard"}},
		MaxConcurrent: 1,
		MaxQueue:      1,
		Registry:      metrics.NewRegistry(),
	}
	_, ts := startServer(t, cfg, store)

	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		APIKey:      "ovl-key",
		Queries:     []string{"select id, val from big order by val"},
		Concurrency: 8, // 4× the queue+slot capacity
		Duration:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Errorf("closed-loop 8-way load against capacity 2 shed nothing: %+v", res.StatusCounts)
	}
	if res.OK == 0 {
		t.Error("overload starved every request")
	}
	if res.RetryAfterSeen != res.Shed {
		t.Errorf("%d of %d shed responses missing Retry-After", res.Shed-res.RetryAfterSeen, res.Shed)
	}
	for code := range res.StatusCounts {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("unexpected status %d under pure overload: %+v", code, res.StatusCounts)
		}
	}
}

func TestPercentile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	if p := percentile(lats, 0.50); p != 50*time.Millisecond {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(lats, 0.99); p != 99*time.Millisecond {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(lats, 0.07); p != 7*time.Millisecond {
		t.Errorf("p7 = %v, want 7ms: 0.07 × 100 lands one ulp above 7", p)
	}
	// Nearest rank is ⌈q·n⌉: p90 of 16 samples is the 15th (14.4 rounds up).
	if p := percentile(lats[:16], 0.90); p != 15*time.Millisecond {
		t.Errorf("p90 of 16 = %v, want 15ms", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}
