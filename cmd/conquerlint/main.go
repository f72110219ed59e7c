// Command conquerlint is the multichecker for the ConQuer analyzer
// suite: it type-checks the requested packages and runs every analyzer
// under internal/analysis/passes, printing findings in the familiar
// file:line:col form and exiting non-zero when any survive.
//
// Usage:
//
//	conquerlint [-C dir] [-only floatcmp,nopanic] [-list] [-json] [-allows] [packages...]
//
// Package patterns are module-relative directories, with "./..."
// recursion; the default is "./...". Suppress an individual finding with
// a "//lint:allow <analyzer> -- reason" comment on the offending line or
// the line above.
//
// -json prints the findings as a stable machine-readable document (CI
// uploads it as a build artifact). -allows switches to the suppression
// inventory: every lint:allow annotation in the loaded packages, with
// its reason and whether it still suppresses anything; annotations that
// no longer match a diagnostic — or name an unknown analyzer — are
// stale, and stale annotations fail the run. -allows runs the full
// suite, so it does not combine with -only. Exit codes: 0 clean, 1
// findings (or stale annotations under -allows), 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"conquer/internal/analysis"
	"conquer/internal/analysis/driver"
	"conquer/internal/analysis/load"
	"conquer/internal/analysis/passes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one diagnostic in -json output. Paths are module-root
// relative so the document is stable across checkouts.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonAllow is one lint:allow annotation in -json -allows output.
type jsonAllow struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Name   string `json:"analyzer"`
	Reason string `json:"reason,omitempty"`
	Used   bool   `json:"used"`
	Stale  bool   `json:"stale"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Analyzers []string      `json:"analyzers"`
	Packages  int           `json:"packages"`
	Findings  []jsonFinding `json:"findings"`
	Allows    []jsonAllow   `json:"allows,omitempty"`
}

// run is main with its environment made explicit, so driver tests can
// exercise flags, patterns and exit codes in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conquerlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := fs.Bool("json", false, "print a machine-readable JSON report")
	allows := fs.Bool("allows", false, "inventory lint:allow annotations; fail on stale ones")
	chdir := fs.String("C", ".", "directory whose module is linted")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *allows && *only != "" {
		fmt.Fprintln(stderr, "conquerlint: -allows needs the full suite: a waiver for an analyzer that did not run would look stale; drop -only")
		return 2
	}

	suite := passes.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "conquerlint: unknown analyzer %q\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg, err := load.MainModule(*chdir)
	if err != nil {
		fmt.Fprintf(stderr, "conquerlint: %v\n", err)
		return 2
	}
	fset, pkgs, err := cfg.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "conquerlint: %v\n", err)
		return 2
	}
	findings, anns, err := driver.RunAll(fset, pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "conquerlint: %v\n", err)
		return 2
	}

	relative := func(file string) string {
		if rel, err := filepath.Rel(cfg.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return file
	}

	if *allows {
		return reportAllows(stdout, stderr, anns, known, relative, *jsonOut)
	}

	if *jsonOut {
		rep := jsonReport{Packages: len(pkgs), Findings: []jsonFinding{}}
		for _, a := range suite {
			rep.Analyzers = append(rep.Analyzers, a.Name)
		}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     relative(f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "conquerlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "conquerlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// reportAllows prints the suppression inventory and fails when any
// annotation is stale: it suppressed nothing in this run, or names an
// analyzer that does not exist.
func reportAllows(stdout, stderr io.Writer, anns []analysis.Annotation, known map[string]bool, relative func(string) string, jsonOut bool) int {
	stale := 0
	var out []jsonAllow
	for _, a := range anns {
		ja := jsonAllow{
			File:   relative(a.File),
			Line:   a.Line,
			Name:   a.Name,
			Reason: a.Reason,
			Used:   a.Used,
			Stale:  !a.Used || !known[a.Name],
		}
		if ja.Stale {
			stale++
		}
		out = append(out, ja)
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "conquerlint: %v\n", err)
			return 2
		}
	} else {
		for _, ja := range out {
			status := "used"
			switch {
			case !known[ja.Name]:
				status = "STALE (unknown analyzer)"
			case !ja.Used:
				status = "STALE (suppresses nothing)"
			}
			line := fmt.Sprintf("%s:%d: %s %s", ja.File, ja.Line, ja.Name, status)
			if ja.Reason != "" {
				line += " -- " + ja.Reason
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if stale > 0 {
		fmt.Fprintf(stderr, "conquerlint: %d stale lint:allow annotation(s); delete them or restore the violation they waive\n", stale)
		return 1
	}
	return 0
}
