// Command conquerd is the long-lived multi-tenant query server over the
// clean-answer engine (DESIGN.md §13).
//
// Usage:
//
//	conquerd [flags]
//
// Flags:
//
//	-addr          listen address (default 127.0.0.1:8080)
//	-dir           directory of TPC-H CSV files produced by datagen; when
//	               unset the Figure-2 example database of the paper is served
//	-tenants      JSON tenant-config file mapping API keys to limit
//	               presets, concurrency caps and optional fault schedules;
//	               when unset a single tenant "default" with key "dev-key"
//	               and the standard preset is created
//	-fault         inject storage faults into one tenant, repeatable:
//	               "tenant=NAME,op=scan,table=lineitem,n=100,error=internal"
//	-max-concurrent global execution slots (0 = one per CPU)
//	-max-queue     admission queue bound (0 = 4× max-concurrent)
//	-memory-watermark-rows  shed when projected buffered rows cross this (0 = off)
//	-drain-timeout how long SIGTERM waits for in-flight queries (default 10s)
//	-parallelism   per-query worker count (0 = one per CPU, 1 = serial)
//	-query-log     file receiving one JSON line per request
//	-metrics-addr  debug HTTP address for /debug/metrics, expvar and pprof
//	               (empty = off; bind localhost only)
//
// Endpoints: POST /v1/query, POST /v1/clean, GET /healthz, GET /v1/stats.
// Authentication: "Authorization: Bearer <key>" or "X-Api-Key: <key>".
//
// On SIGTERM or SIGINT the server drains: admission stops (503 with
// reason "shutdown"), in-flight queries get -drain-timeout to finish,
// stragglers are canceled with qerr.ErrShutdown, then the query log is
// flushed and the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"conquer/internal/metrics"
	"conquer/internal/server"
	"conquer/internal/storage"
	"conquer/internal/testdb"
	"conquer/internal/tpch"
)

// faultFlags collects repeated -fault flags.
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, "; ") }
func (f *faultFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dir := flag.String("dir", "", "directory of TPC-H CSVs from datagen (default: the paper's Figure-2 example)")
	tenantsPath := flag.String("tenants", "", "JSON tenant-config file (default: one tenant \"default\" with key \"dev-key\")")
	maxConcurrent := flag.Int("max-concurrent", 0, "global execution slots (0 = one per CPU)")
	maxQueue := flag.Int("max-queue", 0, "admission queue bound (0 = 4x max-concurrent)")
	memWatermark := flag.Int64("memory-watermark-rows", 0, "shed when projected buffered rows cross this (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight queries on shutdown")
	par := flag.Int("parallelism", 0, "per-query workers of /v1/query and /v1/clean (0 = one per CPU, 1 = serial)")
	queryLogPath := flag.String("query-log", "", "file receiving one JSON line per request")
	metricsAddr := flag.String("metrics-addr", "", "debug HTTP address for /debug/metrics, expvar and pprof (empty = off; bind localhost only)")
	var faults faultFlags
	flag.Var(&faults, "fault", "inject storage faults into one tenant: \"tenant=NAME,op=scan,table=lineitem,n=100,error=internal\" (repeatable)")
	flag.Parse()

	if err := run(*addr, *dir, *tenantsPath, *maxConcurrent, *maxQueue, *memWatermark,
		*drainTimeout, *par, *queryLogPath, *metricsAddr, faults); err != nil {
		fmt.Fprintln(os.Stderr, "conquerd:", err)
		os.Exit(1)
	}
}

func run(addr, dir, tenantsPath string, maxConcurrent, maxQueue int, memWatermark int64,
	drainTimeout time.Duration, par int, queryLogPath, metricsAddr string, faults faultFlags) error {
	store, err := openStore(dir)
	if err != nil {
		return err
	}

	tenants := []server.TenantConfig{{Name: "default", Key: "dev-key", Preset: "standard"}}
	if tenantsPath != "" {
		tenants, err = server.LoadTenantsFile(tenantsPath)
		if err != nil {
			return err
		}
	}
	if err := applyFaultFlags(tenants, faults); err != nil {
		return err
	}

	var qlog *metrics.QueryLog
	var logFile *os.File
	if queryLogPath != "" {
		logFile, err = os.OpenFile(queryLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		qlog = metrics.NewQueryLog(logFile)
	}

	srv, err := server.New(store, server.Config{
		Tenants:             tenants,
		MaxConcurrent:       maxConcurrent,
		MaxQueue:            maxQueue,
		MemoryWatermarkRows: memWatermark,
		DrainTimeout:        drainTimeout,
		Parallelism:         par,
		QueryLog:            qlog,
	})
	if err != nil {
		return err
	}

	if metricsAddr != "" {
		go func() {
			// Unauthenticated debug surface; the operator keeps the
			// address local (DESIGN.md §10).
			mux := http.NewServeMux()
			mux.Handle("/debug/metrics", metrics.Default.Handler())
			mux.Handle("/debug/vars", expvar.Handler())
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "conquerd: metrics endpoint:", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "conquerd: serving %d tenant(s) on %s\n", len(tenants), addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "conquerd: %v received, draining (timeout %v)\n", sig, drainTimeout)
	}

	drainErr := srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "conquerd: http shutdown:", err)
	}
	if logFile != nil {
		// The query log writes synchronously; Sync flushes the OS
		// buffers so the drain contract ("flushes the query log") holds
		// even if the host dies right after exit.
		_ = logFile.Sync()
		_ = logFile.Close()
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "conquerd: drained cleanly")
	return nil
}

// openStore loads the TPC-H CSVs from dir, or the paper's Figure-2
// example database when dir is empty.
func openStore(dir string) (*storage.DB, error) {
	if dir == "" {
		return testdb.Figure2().Store, nil
	}
	return tpch.LoadCSV(dir)
}

// applyFaultFlags parses each -fault flag
// ("tenant=NAME,op=scan,table=lineitem,n=100,error=internal") and
// appends the rule to the named tenant's fault schedule.
func applyFaultFlags(tenants []server.TenantConfig, faults faultFlags) error {
	for _, spec := range faults {
		var name string
		var rule server.FaultRule
		for _, kv := range strings.Split(spec, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("malformed -fault entry %q (want k=v pairs)", spec)
			}
			switch k {
			case "tenant":
				name = v
			case "table":
				rule.Table = v
			case "op":
				rule.Op = v
			case "n":
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("-fault %q: n: %w", spec, err)
				}
				rule.N = n
			case "error":
				rule.Error = v
			default:
				return fmt.Errorf("-fault %q: unknown key %q", spec, k)
			}
		}
		if name == "" {
			return fmt.Errorf("-fault %q: missing tenant=", spec)
		}
		found := false
		for i := range tenants {
			if tenants[i].Name == name {
				tenants[i].Faults = append(tenants[i].Faults, rule)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("-fault %q: no tenant named %q", spec, name)
		}
	}
	return nil
}
