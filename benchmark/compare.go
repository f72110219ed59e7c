package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // within the bound, but the runs' own spread is wider than it
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// values collects one metric of one workload from every run-set's
// untraced run: end-to-end metrics are measured with tracing off.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Runs {
		for _, r := range set.Untraced {
			if r.Workload != workload {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// judge compares the medians of two sets of runs of one metric. A median
// worse by more than the bound is worse however wide the spread: the
// acceptance driver rejects on the medians alone. Unresolved stands where
// same or better would: the runs' own spread is wider than the bound, so
// they cannot show that nothing changed. A result file made with -repeat 1
// has one value a side and so no spread: it can never read unresolved.
func judge(def metricDef, old, cur []float64) (delta float64, verdict string) {
	_, oldMed, _ := quartiles(old)
	_, curMed, _ := quartiles(cur)
	if def.AbsBound > 0 {
		delta = curMed - oldMed
		if delta > def.AbsBound {
			return delta, verdictWorse
		}
		return delta, verdictSame
	}
	if oldMed == 0 { // a zero baseline has no relative change
		if curMed == 0 {
			return 0, verdictSame
		}
		return math.Inf(1), verdictUnresolved
	}
	delta = (curMed - oldMed) / math.Abs(oldMed)
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > def.Bound:
		return delta, verdictWorse
	case max(spread(old), spread(cur)) > def.Bound:
		return delta, verdictUnresolved
	case worse < -def.Bound:
		return delta, verdictBetter
	}
	return delta, verdictSame
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 on a higher fail_share or a worse verdict on a gated metric.
// A demoted metric's verdict is printed and marked, and decides nothing:
// two files recorded an hour apart differ in it by the host alone.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(oldF, newF, stdout)
}

func compareResults(oldF, newF *resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "old: commit %s, seed %d, %d run-set(s); new: commit %s, seed %d, %d run-set(s)\n",
		oldF.Host.Commit, oldF.Seed, len(oldF.Runs), newF.Host.Commit, newF.Seed, len(newF.Runs))
	w := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tdelta (base old)\tbound\tverdict")
	code := 0
	counts, demoted := map[string]int{}, map[string]int{}
	for _, wl := range workloadDefs {
		for _, def := range metricDefs {
			if def.Gate == gateNone || !def.appliesTo(wl.Name) {
				continue
			}
			old, cur := oldF.values(wl.Name, def.Name), newF.values(wl.Name, def.Name)
			if len(old) == 0 || len(cur) == 0 {
				continue
			}
			delta, verdict := judge(def, old, cur)
			if def.Gate == gateDemoted {
				demoted[verdict]++
				verdict += " (demoted)"
			} else {
				counts[verdict]++
				if verdict == verdictWorse || (def.Name == "fail_share" && delta > 0) {
					code = 1
				}
			}
			oq1, om, oq3 := quartiles(old)
			nq1, nm, nq3 := quartiles(cur)
			bound, change := fmt.Sprintf("%.0f%%", def.Bound*100), fmt.Sprintf("%+.1f%% of %.6g", delta*100, om)
			if def.AbsBound > 0 {
				bound, change = fmt.Sprintf("+%g abs", def.AbsBound), fmt.Sprintf("%+.4g", delta)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%s\t%s\n",
				wl.Name, def.Name, def.Unit, om, oq1, oq3, nm, nq1, nq3, change, bound, verdict)
		}
	}
	if err := w.Flush(); err != nil {
		return 2
	}
	fmt.Fprintf(stdout, "gated: %d better, %d same, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	fmt.Fprintf(stdout, "demoted (wall clock, not gated): %d better, %d same, %d worse, %d unresolved\n",
		demoted[verdictBetter], demoted[verdictSame], demoted[verdictWorse], demoted[verdictUnresolved])
	return code
}
