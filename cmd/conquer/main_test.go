package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	cachepkg "conquer/internal/cache"
	"conquer/internal/engine"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/uisgen"
)

func newTestShell(t *testing.T) (*shell, *strings.Builder) {
	t.Helper()
	d, err := openDatabase("")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	return &shell{d: d, eng: engine.New(d.Store), out: &out}, &out
}

func TestShellTables(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), `\tables`); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"customer", "orders", "4 rows", "3 rows"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("\\tables missing %q:\n%s", want, out.String())
		}
	}
}

func TestShellPlainQuery(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), "select id, balance from customer order by balance desc"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(4 rows)") {
		t.Errorf("query output:\n%s", out.String())
	}
}

func TestShellCleanQuery(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), "clean select id from customer where balance > 10000"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "prob") || !strings.Contains(s, "(2 clean answers)") {
		t.Errorf("clean output:\n%s", s)
	}
	if !strings.Contains(s, "1.0000") || !strings.Contains(s, "0.2000") {
		t.Errorf("clean probabilities:\n%s", s)
	}
}

func TestShellRewriteAndExplain(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), `\rewrite select id from customer where balance > 10000`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SUM(customer.prob)") {
		t.Errorf("\\rewrite output:\n%s", out.String())
	}
	out.Reset()
	if err := sh.execute(context.Background(), `\explain select id from customer`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Scan(customer") {
		t.Errorf("\\explain output:\n%s", out.String())
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newTestShell(t)
	for _, line := range []string{
		"select nothing from nowhere",
		"clean select c.id from orders o, customer c where o.cidfk = c.id", // Example 7
		`\rewrite not sql`,
		`\explain not sql`,
		"garbage input",
	} {
		if err := sh.execute(context.Background(), line); err == nil {
			t.Errorf("execute(%q) should fail", line)
		}
	}
}

func TestOpenDatabaseFromDir(t *testing.T) {
	dir := t.TempDir()
	d, err := uisgen.Generate(uisgen.Config{
		SF: 0.01, IF: 2, Scale: 0.01, Seed: 3, Propagated: true, UniformProbs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range d.Store.TableNames() {
		tb, _ := d.Store.Table(name)
		if err := tb.SaveCSVFile(filepath.Join(dir, name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := openDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Store.TotalRows() != d.Store.TotalRows() {
		t.Errorf("loaded %d rows, generated %d", loaded.Store.TotalRows(), d.Store.TotalRows())
	}
	// The loaded database answers clean queries.
	sh := &shell{d: loaded, eng: engine.New(loaded.Store), out: &strings.Builder{}}
	if err := sh.execute(context.Background(), "clean select n_nationkey from nation where n_name = 'CANADA'"); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDatabaseMissingDir(t *testing.T) {
	if _, err := openDatabase(filepath.Join(os.TempDir(), "conquer-does-not-exist")); err == nil {
		t.Error("missing directory should fail")
	}
}

// A canceled context aborts queries with the typed sentinel and its
// one-word reason, and the shell object stays usable afterwards.
func TestShellCanceledQuery(t *testing.T) {
	sh, out := newTestShell(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := sh.execute(ctx, "select id from customer")
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	if got := formatError(err); !strings.HasPrefix(got, "(canceled)") {
		t.Errorf("formatError = %q, want (canceled) prefix", got)
	}
	err = sh.execute(ctx, "clean select id from customer")
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("clean error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	// The session survives: the same shell answers the next query.
	if err := sh.execute(context.Background(), "select id from customer"); err != nil {
		t.Fatalf("shell unusable after cancellation: %v", err)
	}
	if !strings.Contains(out.String(), "(4 rows)") {
		t.Errorf("post-cancel output:\n%s", out.String())
	}
}

// executeInterruptible wires an interrupt signal to in-flight query
// cancellation without ending the session.
func TestExecuteInterruptible(t *testing.T) {
	sh, out := newTestShell(t)
	// Signal delivered mid-query: the statement is canceled promptly. The
	// eleven-way cross product (~10^6 output rows) runs long enough for
	// the delayed signal to land while it is still executing.
	sigCh := make(chan os.Signal, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		sigCh <- syscall.SIGINT
	}()
	start := time.Now()
	err := sh.executeInterruptible(
		"select c1.id from customer c1, customer c2, customer c3, customer c4, customer c5, customer c6, customer c7, customer c8, orders o1, orders o2, orders o3",
		sigCh)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("error = %v, want errors.Is(err, qerr.ErrCanceled)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// No signal: the same statement shape runs to completion.
	out.Reset()
	if err := sh.executeInterruptible("select id from customer", make(chan os.Signal)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(4 rows)") {
		t.Errorf("output:\n%s", out.String())
	}
}

// A Ctrl-C left over from before a statement — pressed while the
// previous query was finishing or while idle at the prompt — must not
// cancel the next query. Regression test for the stale-interrupt bug:
// before the drain in executeInterruptible, the pre-buffered signal
// below canceled the fresh query immediately.
func TestExecuteInterruptibleDrainsStaleSignal(t *testing.T) {
	sh, out := newTestShell(t)
	sigCh := make(chan os.Signal, 1)
	sigCh <- syscall.SIGINT // stale: delivered before the statement starts
	if err := sh.executeInterruptible("select id from customer", sigCh); err != nil {
		t.Fatalf("stale signal canceled a fresh query: %v", err)
	}
	if !strings.Contains(out.String(), "(4 rows)") {
		t.Errorf("output:\n%s", out.String())
	}
}

// scrubTimings replaces wall-clock durations in \explain analyze output
// so the remainder is deterministic and comparable against a golden file.
var scrubTime = regexp.MustCompile(`time=[^ )]+`)
var scrubSummary = regexp.MustCompile(`rows in [^ ]+ \(`)

// \explain analyze prints per-operator observed counters. The counters
// are deterministic at parallelism 1, so everything except wall time is
// checked against golden files (regenerate with CONQUER_UPDATE_GOLDEN=1):
// the paper's Figure-4 query — the grouping-and-summing rewriting of the
// running example — and the rewriting of its order ⋈ customer join, whose
// join line carries the kept/arriving column count (DESIGN.md §16).
func TestShellExplainAnalyzeGolden(t *testing.T) {
	for _, tc := range []struct{ golden, sql string }{
		{"explain_analyze_fig4.golden",
			`SELECT id, SUM(customer.prob) AS prob FROM customer WHERE balance > 10000 GROUP BY id`},
		{"explain_analyze_join.golden",
			`SELECT o.id, SUM(o.prob * c.prob) AS prob FROM orders o, customer c WHERE o.cidfk = c.id AND c.balance > 10000 GROUP BY o.id`},
	} {
		d, err := openDatabase("")
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		sh := &shell{
			d:   d,
			eng: engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1}),
			out: &out,
		}
		if err := sh.execute(context.Background(), `\explain analyze `+tc.sql); err != nil {
			t.Fatal(err)
		}
		got := scrubSummary.ReplaceAllString(scrubTime.ReplaceAllString(out.String(), "time=?"), "rows in ? (")
		golden := filepath.Join("testdata", tc.golden)
		if os.Getenv("CONQUER_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("\\explain analyze output drifted from %s.\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}

// The eval command runs the degradation ladder and reports the method
// that answered: exact, for a query outside the rewritable class.
func TestShellEval(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), "eval select name from customer where balance > 10000"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "(2 clean answers)") || !strings.Contains(s, "method: exact") {
		t.Errorf("eval output:\n%s", s)
	}
}

// -query-log covers clean answers too: eval and clean run on the shell's
// engine, and each appends one line naming the rung that answered.
func TestShellQueryLogsCleanAndEval(t *testing.T) {
	d, err := openDatabase("")
	if err != nil {
		t.Fatal(err)
	}
	var log, out strings.Builder
	sh := &shell{d: d, eng: engine.NewWithOptions(d.Store, engine.Options{QueryLog: metrics.NewQueryLog(&log)}), out: &out}
	for _, c := range []struct{ line, method string }{
		{"eval select name from customer where balance > 10000", `"method":"exact"`},
		{"eval select id from customer where balance > 10000", `"method":"rewrite"`},
		{"clean select id from customer where balance > 10000", `"method":"rewrite"`},
	} {
		log.Reset()
		if err := sh.execute(context.Background(), c.line); err != nil {
			t.Fatal(err)
		}
		if got := log.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, c.method) {
			t.Errorf("%s: query log %q, want one line with %s", c.line, got, c.method)
		}
	}
}

// The debug mux serves the metrics registry, expvar, and pprof.
func TestMetricsMux(t *testing.T) {
	srv := httptest.NewServer(metricsMux())
	defer srv.Close()
	// profile and trace are registered but not fetched here: their
	// handlers block for the sampling duration (30s / 1s defaults).
	for path, want := range map[string]string{
		"/debug/metrics":       "{",
		"/debug/vars":          "memstats",
		"/debug/pprof/":        "profile",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q:\n%s", path, want, body[:n])
		}
	}
}

func TestShellStats(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), `\stats`); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"customer", "candidate databases: 8", "bits of uncertainty"} {
		if !strings.Contains(s, want) {
			t.Errorf("\\stats missing %q:\n%s", want, s)
		}
	}
}

func newCachedTestShell(t *testing.T) (*shell, *strings.Builder) {
	t.Helper()
	d, err := openDatabase("")
	if err != nil {
		t.Fatal(err)
	}
	qc := cachepkg.New(cachepkg.Options{MaxBytes: 1 << 20})
	var out strings.Builder
	eng := engine.NewWithOptions(d.Store, engine.Options{Cache: qc, Parallelism: 1})
	return &shell{d: d, eng: eng, out: &out}, &out
}

func TestShellCacheOffMessage(t *testing.T) {
	sh, out := newTestShell(t)
	if err := sh.execute(context.Background(), `\cache`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache is off") {
		t.Errorf("\\cache without a cache:\n%s", out.String())
	}
}

func TestShellCacheStatsAndClear(t *testing.T) {
	sh, out := newCachedTestShell(t)
	const q = "select id from customer"
	if err := sh.execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := sh.execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(4 rows, cached)") {
		t.Errorf("second run should print the cached marker:\n%s", out.String())
	}
	out.Reset()
	if err := sh.execute(context.Background(), `\cache`); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "result tier") || !strings.Contains(s, "1 hits") {
		t.Errorf("\\cache stats:\n%s", s)
	}
	out.Reset()
	if err := sh.execute(context.Background(), `\cache clear`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache cleared") {
		t.Errorf("\\cache clear output:\n%s", out.String())
	}
	out.Reset()
	if err := sh.execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cached") {
		t.Errorf("query after clear must re-execute:\n%s", out.String())
	}
}

func TestShellEvalCachedMarker(t *testing.T) {
	sh, out := newCachedTestShell(t)
	const q = "eval select id from customer where balance > 10000"
	if err := sh.execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := sh.execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(cached)") {
		t.Errorf("repeated eval should print (cached):\n%s", out.String())
	}
}
