// Command experiments regenerates the paper's evaluation artifacts as
// formatted tables: Figures 7-10 and Tables 1-4 of "Clean Answers over
// Dirty Databases" (ICDE 2006).
//
// Usage:
//
//	experiments [flags] {fig7|fig8|fig9|fig10|table1|table2|table3|table4|verify|all}
//
// Flags:
//
//	-scale   entity-count multiplier vs. the TPC-H spec (default 0.001)
//	-seed    generator seed (default 1)
//	-reps    repetitions per timing (default 7)
//
// The first line printed names the host and the settings, so a table
// pasted into EXPERIMENTS.md carries where it was measured. Every timing
// is the median of its repetitions with the quartiles. Absolute times are
// not comparable to the paper's 2006 DB2 testbed; the shapes (ratios,
// trends over if and sf) are the reproduction targets.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"conquer/internal/bench"
)

func main() {
	scale := flag.Float64("scale", bench.DefaultScale, "entity-count multiplier vs. the TPC-H spec")
	seed := flag.Int64("seed", 1, "generator seed")
	reps := flag.Int("reps", 7, "repetitions per timing (median and quartiles are reported)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	which := flag.Arg(0)
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s %s/%s, commit %s; scale %g, seed %d, reps %d\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit(), *scale, *seed, *reps)
	run := func(name string) error {
		switch name {
		case "fig7":
			rows, err := bench.Fig7(1, *scale, []int{1, 5, 25}, *seed, *reps)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig7(rows))
		case "fig8":
			d, err := bench.GenerateWorkload(1, 3, *scale, *seed)
			if err != nil {
				return err
			}
			rows, err := bench.Fig8(d, *reps)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig8(rows))
		case "fig9":
			rows, err := bench.Fig9(1, *scale, []int{1, 2, 3, 4, 5}, *seed, *reps)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig9(rows))
		case "fig10":
			sfs := []float64{0.1, 0.5, 1, 2}
			rows, err := bench.Fig10(sfs, *scale, 3, *seed, *reps)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFig10(sfs, rows))
		case "table1":
			return printTable(bench.Table1())
		case "table2":
			return printTable(bench.Table2())
		case "table3":
			return printTable(bench.Table3())
		case "table4":
			return printTable(bench.Table4(*seed))
		case "verify":
			results, err := bench.Verify(*seed, 1e-9)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatVerify(results))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	names := []string{which}
	if which == "all" {
		names = []string{"table1", "table2", "table3", "table4", "fig7", "fig8", "fig9", "fig10"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// commit is the revision the binary was built from, as the Go toolchain
// stamped it ("+dirty" with uncommitted changes). Plain `go run` does not
// stamp, and prints "unknown": use `go run -buildvcs=true` or `go build`
// for a table that goes into EXPERIMENTS.md.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value[:min(len(s.Value), 7)]
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func printTable(s string, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [flags] {fig7|fig8|fig9|fig10|table1|table2|table3|table4|verify|all}

Regenerates the evaluation artifacts of "Clean Answers over Dirty
Databases: A Probabilistic Approach" (ICDE 2006).

`)
	flag.PrintDefaults()
}
