// TPC-H demo: the paper's evaluation workload in miniature (§5).
//
// Generates a dirty TPC-H instance with the UIS-style generator
// (scaling factor 1, inconsistency factor 3 — the Figure 8 setting,
// entity counts scaled down to run in seconds), then executes Query 3 —
// the paper's showcased shipping-priority query — three ways:
//
//   - the original SQL directly on the dirty data,
//   - its RewriteClean rewriting (clean answers with probabilities), and
//   - the same rewriting printed as SQL, to show it is ordinary SQL any
//     engine could run.
//
// Run with:
//
//	go run ./examples/tpchdemo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"conquer/internal/core"
	"conquer/internal/engine"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
	"conquer/internal/uisgen"
)

func main() {
	start := time.Now()
	d, err := uisgen.Generate(uisgen.Config{
		SF: 1, IF: 3, Scale: 0.0005, Seed: 42,
		Propagated: true, UniformProbs: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Generated dirty TPC-H instance in %v:\n", time.Since(start).Round(time.Millisecond))
	total := 0
	for _, name := range d.Store.TableNames() {
		tb, _ := d.Store.Table(name)
		total += tb.Len()
		fmt.Printf("  %-10s %7d rows\n", name, tb.Len())
	}
	fmt.Printf("  %-10s %7d rows (if=3: ~3 duplicate tuples per entity)\n\n", "total", total)

	q3, err := tpch.Get(3)
	if err != nil {
		log.Fatal(err)
	}
	stmt := sqlparse.MustParse(q3.SQL)
	fmt.Println("TPC-H Query 3 (SPJ form, §5.3):")
	fmt.Println(" ", q3.SQL)

	eng := engine.New(d.Store)
	start = time.Now()
	orig, err := eng.QueryStmt(stmt)
	if err != nil {
		log.Fatal(err)
	}
	origTime := time.Since(start)
	fmt.Printf("\nOriginal query:  %6d rows in %v\n", len(orig.Rows), origTime.Round(time.Microsecond))

	start = time.Now()
	clean, err := core.Evaluator{DB: d, Engine: eng}.Eval(context.Background(), stmt, core.EvalOptions{Method: core.MethodRewrite})
	if err != nil {
		log.Fatal(err)
	}
	rwTime := time.Since(start)
	rw, err := rewrite.RewriteClean(d.Store.Catalog, stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Rewritten query: %6d clean answers in %v (%.2fx the original)\n",
		clean.Len(), rwTime.Round(time.Microsecond), float64(rwTime)/float64(origTime))

	fmt.Println("\nRewritten SQL (ordinary SQL — runs on any engine):")
	fmt.Println(" ", rw.SQL())

	show := clean.Answers
	if len(show) > 5 {
		show = show[:5]
	}
	fmt.Println("\nSample clean answers (tuple ... probability):")
	for _, a := range show {
		fmt.Printf("  %v  p=%.4f\n", a.Values, a.Prob)
	}
}
