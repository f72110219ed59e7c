// Command loadgen drives a conquerd server with the paper's 13 TPC-H
// query pairs (original + RewriteClean rewriting) and reports latency
// percentiles and the shed rate.
//
// Usage:
//
//	loadgen [flags]
//
// Flags:
//
//	-addr         server to load (e.g. http://127.0.0.1:8080); when unset
//	              an in-process server over a UIS-generated dirty TPC-H
//	              instance is started, so the tool is self-contained
//	-key          API key (default dev-key, conquerd's default tenant)
//	-mode         run | smoke (default run)
//	-qps          open-loop request rate for run/smoke (0 = closed loop)
//	-concurrency  worker count for run mode
//	-duration     wall time of the run (default 4s)
//	-sf, -if, -scale, -seed   workload shape for the in-process server
//	-max-concurrent, -max-queue  in-process server capacity (defaults 2, 2)
//
// Modes:
//
//	run     one run at -qps/-concurrency; prints the result JSON.
//	smoke   low-QPS run asserting zero shed and a sane p99; non-zero exit
//	        on violation (the CI load-smoke gate).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"conquer/internal/bench"
	"conquer/internal/load"
	"conquer/internal/metrics"
	"conquer/internal/server"
)

func main() {
	addr := flag.String("addr", "", "server base URL (empty = start an in-process server)")
	key := flag.String("key", "dev-key", "API key")
	mode := flag.String("mode", "run", "run | smoke")
	qps := flag.Float64("qps", 0, "open-loop request rate (0 = closed loop)")
	concurrency := flag.Int("concurrency", 4, "worker count for run mode")
	duration := flag.Duration("duration", 4*time.Second, "wall time of the run")
	sf := flag.Float64("sf", 1, "TPC-H scale factor for the in-process workload")
	ifv := flag.Int("if", 2, "inconsistency factor for the in-process workload")
	scale := flag.Float64("scale", bench.DefaultScale, "entity-count multiplier for the in-process workload")
	seed := flag.Int64("seed", 42, "workload generation seed")
	maxConcurrent := flag.Int("max-concurrent", 2, "in-process server execution slots")
	maxQueue := flag.Int("max-queue", 2, "in-process server admission queue bound")
	flag.Parse()

	if err := run(*addr, *key, *mode, *qps, *concurrency, *duration,
		*sf, *ifv, *scale, *seed, *maxConcurrent, *maxQueue); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(addr, key, mode string, qps float64, concurrency int, duration time.Duration,
	sf float64, ifv int, scale float64, seed int64, maxConcurrent, maxQueue int) error {
	queries, err := queryPool()
	if err != nil {
		return err
	}
	if addr == "" {
		stop, url, err := inProcessServer(key, sf, ifv, scale, seed, maxConcurrent, maxQueue)
		if err != nil {
			return err
		}
		defer stop()
		addr = url
	}
	base := load.Options{
		BaseURL:  addr,
		APIKey:   key,
		Queries:  queries,
		Duration: duration,
	}
	switch mode {
	case "run":
		base.QPS = qps
		base.Concurrency = concurrency
		res, err := load.Run(context.Background(), base)
		if err != nil {
			return err
		}
		return printJSON(os.Stdout, res)
	case "smoke":
		return smoke(base, qps)
	}
	return fmt.Errorf("unknown -mode %q", mode)
}

// queryPool is the 13 evaluation pairs as 26 statements: every original
// query and its RewriteClean rewriting, so the load mixes cheap SPJ
// originals with the heavier grouped rewritings.
func queryPool() ([]string, error) {
	pairs, err := bench.PreparePairs()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range pairs {
		out = append(out, p.Original.SQL(), p.Rewritten.SQL())
	}
	return out, nil
}

// inProcessServer generates the dirty TPC-H workload and serves it on a
// loopback listener.
func inProcessServer(key string, sf float64, ifv int, scale float64, seed int64,
	maxConcurrent, maxQueue int) (stop func(), url string, err error) {
	fmt.Fprintf(os.Stderr, "loadgen: generating workload sf=%g if=%d scale=%g\n", sf, ifv, scale)
	d, err := bench.GenerateWorkload(sf, ifv, scale, seed)
	if err != nil {
		return nil, "", err
	}
	srv, err := server.New(d.Store, server.Config{
		Tenants:       []server.TenantConfig{{Name: "loadgen", Key: key, Preset: "standard"}},
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxQueue,
		DrainTimeout:  5 * time.Second,
		Registry:      metrics.NewRegistry(),
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	stop = func() {
		_ = srv.Drain()
		_ = httpSrv.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// smoke is the CI gate: low-QPS traffic under the watermark must shed
// nothing, fail nothing, and keep p99 interactive.
func smoke(base load.Options, qps float64) error {
	if qps <= 0 {
		qps = 20
	}
	base.QPS = qps
	base.Concurrency = 2
	res, err := load.Run(context.Background(), base)
	if err != nil {
		return err
	}
	if err := printJSON(os.Stderr, res); err != nil {
		return err
	}
	if res.Sent == 0 {
		return fmt.Errorf("smoke sent no requests")
	}
	if res.Shed != 0 {
		return fmt.Errorf("smoke shed %d/%d requests under the watermark", res.Shed, res.Sent)
	}
	if res.Errors != 0 {
		return fmt.Errorf("smoke saw %d errors: %v", res.Errors, res.StatusCounts)
	}
	const p99Bound = 2 * time.Second
	if res.P99Micros > p99Bound.Microseconds() {
		return fmt.Errorf("smoke p99 %dus over bound %v", res.P99Micros, p99Bound)
	}
	fmt.Fprintln(os.Stderr, "loadgen: smoke ok")
	return nil
}

func printJSON(w *os.File, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
