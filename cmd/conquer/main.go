// Command conquer is an interactive shell for querying dirty databases
// with clean-answer semantics.
//
// Usage:
//
//	conquer [flags]
//
// Flags:
//
//	-dir          directory of TPC-H CSV files produced by datagen; when
//	              unset the Figure-2 example database of the paper is loaded
//	-c            execute one statement and exit
//	-timeout      per-query wall-clock budget (e.g. 30s; 0 means none)
//	-parallelism  worker count for parallel scans, joins and aggregation
//	              (0 = one worker per CPU; 1 forces serial execution)
//	-batch-size   rows per execution batch (0 = the built-in default);
//	              results are identical at every size, a negative one is
//	              a usage error
//	-metrics-addr address for the debug HTTP endpoint (/debug/metrics,
//	              expvar, pprof); empty disables it. Bind localhost only —
//	              the endpoint is unauthenticated (DESIGN.md §10).
//	-query-log    file receiving one JSON line per executed query and per
//	              clean or eval
//	-cache-bytes  size of the one query cache the shell builds and hands
//	              to the engine: the byte budget of its result tier (e.g.
//	              64MiB as 67108864); 0 builds none. Cached answers are
//	              invalidated automatically when tables mutate.
//
// Every flag configures the one engine the shell holds, which runs plain
// SQL, \explain, and every query clean and eval run.
//
// Inside the shell:
//
//	select ...                    run SQL directly on the dirty data
//	clean select ...              compute clean answers via RewriteClean
//	eval select ...               clean answers via the degradation ladder
//	\rewrite select ...           print the rewritten SQL without running it
//	\explain select ...           print the physical plan
//	\explain analyze select ...   run the plan, print observed counters
//	\tables                       list relations
//	\stats                        duplication statistics, candidate count, uncertainty
//	\cache                        query-cache statistics (hits, misses, evictions)
//	\cache clear                  drop every cached entry
//	\q                            quit
//
// Ctrl-C cancels the in-flight query (the shell reports why it stopped —
// canceled, deadline, budget — and stays alive); a second Ctrl-C at a
// quiet prompt exits as usual.
package main

import (
	"bufio"
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"

	cachepkg "conquer/internal/cache"
	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/testdb"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
)

func main() {
	dir := flag.String("dir", "", "directory of TPC-H CSVs from datagen (default: the paper's Figure-2 example)")
	oneShot := flag.String("c", "", "execute one statement and exit")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock budget (0 = none)")
	par := flag.Int("parallelism", 0, "workers for parallel execution (0 = one per CPU, 1 = serial)")
	shards := flag.Int("shards", 0, "cluster shards for parallel scans (0 = one per CPU, 1 = unsharded; always 1 at -parallelism 1)")
	batchSize := flag.Int("batch-size", 0, "rows per execution batch (0 = default)")
	metricsAddr := flag.String("metrics-addr", "", "debug HTTP address for /debug/metrics, expvar and pprof (empty = off; bind localhost only)")
	queryLogPath := flag.String("query-log", "", "file receiving one JSON line per query and per clean or eval")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget for cached query results (0 = caching off)")
	flag.Parse()
	if *batchSize < 0 {
		fmt.Fprintf(os.Stderr, "conquer: -batch-size %d: a batch holds a positive number of rows (0 = default)\n", *batchSize)
		flag.Usage()
		os.Exit(2)
	}

	d, err := openDatabase(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conquer:", err)
		os.Exit(1)
	}
	var qlog *metrics.QueryLog
	if *queryLogPath != "" {
		f, err := os.OpenFile(*queryLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "conquer:", err)
			os.Exit(1)
		}
		defer f.Close()
		qlog = metrics.NewQueryLog(f)
	}
	if *metricsAddr != "" {
		go func() {
			// The endpoint is unauthenticated; it is the operator's job to
			// keep the address local (see DESIGN.md §10).
			if err := http.ListenAndServe(*metricsAddr, metricsMux()); err != nil {
				fmt.Fprintln(os.Stderr, "conquer: metrics endpoint:", err)
			}
		}()
	}
	// One cache shared by plain SQL and clean answers, so \cache shows the
	// whole picture and both paths benefit from version invalidation.
	var qc *cachepkg.Cache
	if *cacheBytes > 0 {
		qc = cachepkg.New(cachepkg.Options{MaxBytes: *cacheBytes})
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Limits: exec.Limits{Timeout: *timeout}, Parallelism: *par, Shards: *shards, BatchSize: *batchSize, QueryLog: qlog, Cache: qc})
	sh := &shell{d: d, eng: eng, out: os.Stdout}

	if *oneShot != "" {
		if err := sh.execute(context.Background(), *oneShot); err != nil {
			fmt.Fprintln(os.Stderr, "conquer:", formatError(err))
			os.Exit(1)
		}
		return
	}

	// Ctrl-C cancels the in-flight query instead of killing the shell;
	// the channel is buffered so a signal arriving between queries is
	// picked up by the next one.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)

	fmt.Println("ConQuer-Go — clean answers over dirty databases (ICDE 2006 reproduction)")
	fmt.Println(`Type SQL, "clean SELECT ...", "eval SELECT ...", \tables, \rewrite, \explain [analyze], or \q. Ctrl-C cancels a query.`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("conquer> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			// Drop any interrupt delivered while idle at the prompt.
			select {
			case <-sigCh:
			default:
			}
			continue
		}
		if line == `\q` || line == "quit" || line == "exit" {
			return
		}
		if err := sh.executeInterruptible(line, sigCh); err != nil {
			fmt.Fprintln(os.Stderr, "error:", formatError(err))
		}
	}
}

// metricsMux serves the process-level observability surface: the
// metrics registry at /debug/metrics, the stdlib expvar page, and the
// pprof profile/trace handlers. It is unauthenticated by design — bind
// it to localhost only (DESIGN.md §10).
func metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", metrics.Default.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// executeInterruptible runs one statement under a context that Ctrl-C
// cancels; the shell survives either way. Any interrupt still buffered
// from before this statement — delivered while a previous query was
// finishing, or while idle at the prompt — is drained first so a stale
// Ctrl-C cannot cancel a fresh query the user just asked for.
func (sh *shell) executeInterruptible(line string, sigCh <-chan os.Signal) error {
	for {
		select {
		case <-sigCh:
			continue
		default:
		}
		break
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-done:
		}
	}()
	err := sh.execute(ctx, line)
	close(done)
	cancel()
	return err
}

// formatError prefixes taxonomy errors with their one-word reason so an
// interrupted user sees "(canceled)" rather than a raw error chain.
func formatError(err error) string {
	if reason := qerr.Reason(err); reason != "" {
		return fmt.Sprintf("(%s) %v", reason, err)
	}
	return err.Error()
}

func openDatabase(dir string) (*dirty.DB, error) {
	if dir == "" {
		return testdb.Figure2(), nil
	}
	store, err := tpch.LoadCSV(dir)
	if err != nil {
		return nil, err
	}
	return dirty.New(store), nil
}

type shell struct {
	d   *dirty.DB
	eng *engine.Engine // plain SQL and every clean answer's queries run here
	out io.Writer
}

// eval evaluates the clean answers of the statement text under method
// (core.MethodNone for the ladder) on the shell's engine.
func (sh *shell) eval(ctx context.Context, sql string, method core.Method) (*core.Result, error) {
	stmt, err := sqlparse.Parse(strings.TrimSpace(sql))
	if err != nil {
		return nil, err
	}
	return core.Evaluator{DB: sh.d, Engine: sh.eng}.Eval(ctx, stmt, core.EvalOptions{Method: method})
}

func (sh *shell) execute(ctx context.Context, line string) error {
	switch {
	case line == `\tables`:
		for _, name := range sh.d.Store.TableNames() {
			tb, _ := sh.d.Store.Table(name)
			fmt.Fprintf(sh.out, "%-10s %8d rows  %s\n", name, tb.Len(), tb.Schema)
		}
		return nil
	case line == `\stats`:
		stats, err := uisgen.Stats(sh.d)
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, uisgen.FormatStats(stats))
		count, err := sh.d.CandidateCount()
		if err != nil {
			return err
		}
		bits, err := sh.d.UncertaintyBits()
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "candidate databases: %s (%.1f bits of uncertainty)\n", count, bits)
		return nil
	case line == `\cache`:
		qc := sh.eng.Options().Cache
		if qc == nil {
			fmt.Fprintln(sh.out, "cache is off (start with -cache-bytes to enable it)")
			return nil
		}
		fmt.Fprint(sh.out, qc.Stats().String())
		return nil
	case line == `\cache clear`:
		qc := sh.eng.Options().Cache
		if qc == nil {
			fmt.Fprintln(sh.out, "cache is off (start with -cache-bytes to enable it)")
			return nil
		}
		qc.Clear()
		fmt.Fprintln(sh.out, "cache cleared")
		return nil
	case strings.HasPrefix(line, `\rewrite `):
		stmt, err := sqlparse.Parse(strings.TrimPrefix(line, `\rewrite `))
		if err != nil {
			return err
		}
		rw, err := rewrite.RewriteClean(sh.d.Store.Catalog, stmt)
		if err != nil {
			return err
		}
		fmt.Fprintln(sh.out, rw.SQL())
		return nil
	case strings.HasPrefix(line, `\explain analyze `):
		out, err := sh.eng.ExplainAnalyzeCtx(ctx, strings.TrimPrefix(line, `\explain analyze `))
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, out)
		return nil
	case strings.HasPrefix(line, `\explain `):
		plan, err := sh.eng.Explain(strings.TrimPrefix(line, `\explain `))
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, plan)
		return nil
	case strings.HasPrefix(strings.ToLower(line), "eval "):
		res, err := sh.eval(ctx, line[len("eval "):], core.MethodNone)
		if err != nil {
			return err
		}
		sh.printClean(res)
		fmt.Fprintf(sh.out, "method: %s", res.Method)
		if res.Cached {
			fmt.Fprint(sh.out, " (cached)")
		}
		if len(res.Degraded) > 0 {
			parts := make([]string, len(res.Degraded))
			for i, d := range res.Degraded {
				parts[i] = d.String()
			}
			fmt.Fprintf(sh.out, " (degraded: %s)", strings.Join(parts, " -> "))
		}
		fmt.Fprintln(sh.out)
		return nil
	case strings.HasPrefix(strings.ToLower(line), "clean "):
		res, err := sh.eval(ctx, line[len("clean "):], core.MethodRewrite)
		if err != nil {
			return err
		}
		sh.printClean(res)
		return nil
	default:
		res, err := sh.eng.QueryCtx(ctx, line)
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, res.String())
		if res.Stats.Cached {
			fmt.Fprintf(sh.out, "(%d rows, cached)\n", len(res.Rows))
		} else {
			fmt.Fprintf(sh.out, "(%d rows)\n", len(res.Rows))
		}
		return nil
	}
}

// printClean renders clean answers with their probabilities. Estimated
// answers (Monte Carlo) carry a per-answer standard error, shown as
// ±err; exact answers have StdErr 0 and print without it.
func (sh *shell) printClean(res *core.Result) {
	fmt.Fprint(sh.out, strings.Join(res.Columns, "  ")+"  prob\n")
	for _, a := range res.Answers {
		for _, v := range a.Values {
			fmt.Fprintf(sh.out, "%v  ", v)
		}
		if a.StdErr > 0 {
			fmt.Fprintf(sh.out, "%.4f ±%.4f\n", a.Prob, a.StdErr)
		} else {
			fmt.Fprintf(sh.out, "%.4f\n", a.Prob)
		}
	}
	fmt.Fprintf(sh.out, "(%d clean answers)\n", len(res.Answers))
}
