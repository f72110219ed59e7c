// Non-rewritable queries: what happens at the edge of the paper's
// rewritable class (Dfn 7), and the escape hatches this library provides.
//
// The paper's Example 7 exhibits a query whose naive grouping-and-summing
// rewriting double-counts candidate databases. This example reproduces
// the failure, then shows the three ways out:
//
//  1. exact candidate enumeration (ground truth, exponential): one query
//     lists each answer's derivations, and every candidate is checked
//     against them,
//  2. augmented rewriting — adding the join-graph root's identifier to
//     the SELECT clause, which the paper calls "not an onerous
//     restriction", and
//  3. Monte-Carlo estimation, plus expected aggregates (the paper's §6
//     future-work direction).
//
// Run with:
//
//	go run ./examples/nonrewritable
package main

import (
	"context"
	"fmt"
	"log"

	"conquer"
)

func main() {
	db := conquer.New()
	db.MustCreateTable("customer",
		conquer.Columns("custid STRING", "name STRING", "balance FLOAT"),
		conquer.WithDirty("id", "prob"))
	db.MustInsert("customer", "m1", "John", 20000.0, "c1", 0.7)
	db.MustInsert("customer", "m2", "John", 30000.0, "c1", 0.3)
	db.MustInsert("customer", "m3", "Mary", 27000.0, "c2", 0.2)
	db.MustInsert("customer", "m4", "Marion", 5000.0, "c2", 0.8)
	db.MustCreateTable("orders",
		conquer.Columns("orderid STRING", "cidfk STRING", "quantity INT"),
		conquer.WithDirty("id", "prob"))
	db.MustInsert("orders", "11", "c1", 3, "o1", 1.0)
	db.MustInsert("orders", "12", "c1", 2, "o2", 0.5)
	db.MustInsert("orders", "13", "c2", 5, "o2", 0.5)

	// The paper's q3: customers with balance > $25K having an order for
	// fewer than 5 items — the identifier of the join-graph root (orders)
	// is not projected.
	q3 := `select c.id from orders o, customer c
	       where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000`

	ok, reasons, err := db.IsRewritable(q3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Rewritable: %v\n", ok)
	for _, r := range reasons {
		fmt.Println("  reason:", r)
	}

	// Escape hatch 1 — exact enumeration (8 candidates here, each checked
	// against one query's derivations of every answer).
	exact, err := db.Eval(context.Background(), q3, conquer.EvalOptions{Method: "exact"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nExact candidate enumeration: P(c1) = %.2f (the paper's 0.3; the\n", exact.Find("c1"))
	fmt.Println("naive grouping rewriting would have wrongly produced 0.45)")

	// Escape hatch 2 — augmented rewriting: project the root identifier.
	aug, augmented, err := db.CleanAnswersAugmented(q3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAugmented rewriting (added root identifier: %v):\n", augmented)
	fmt.Print(aug)
	fmt.Println("Each answer now names the order entity too — finer, but exact and")
	fmt.Println("computed with one SQL query.")

	// Escape hatch 3 — Monte Carlo, for when enumeration is infeasible.
	mc, err := db.Eval(context.Background(), q3, conquer.EvalOptions{Method: "monte-carlo", Samples: 20000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMonte-Carlo estimate (20000 samples): P(c1) ≈ %.3f\n", mc.Find("c1"))

	// Expected aggregates (§6 future work): how many qualifying customers
	// does the clean database have, in expectation?
	fmt.Printf("Expected number of answers E[COUNT] = %.3f\n", exact.ExpectedCount())
	est, err := db.EstimateAggregate(
		"select id, balance from customer where balance > 10000",
		"min", "balance", 20000, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E[MIN(balance)] over >$10K customers ≈ %.0f ± %.0f\n", est.Mean, est.StdDev)
}
