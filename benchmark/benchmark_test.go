package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestQuickWorkloads runs every workload once with the -quick profile,
// traced, and checks what it emits. Quick numbers are never results.
func TestQuickWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloadDefs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(runConfig{
				workload: w.Name, seed: 7, seconds: 0.2, trace: true, quick: true, outdir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if len(res.Metrics) != len(metricDefs) {
				t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(metricDefs))
			}
			for _, def := range metricDefs {
				m, ok := res.Metrics[def.Name]
				if !ok {
					t.Errorf("%s: not emitted", def.Name)
					continue
				}
				if m.Unit != def.Unit || m.Unit == "" {
					t.Errorf("%s: unit %q, want %q", def.Name, m.Unit, def.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: value %v", def.Name, m.Value)
				}
				if def.Gate == gateDriver && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric is %v, must never be 0", def.Name, m.Value)
				}
				if !def.appliesTo(w.Name) && m.Value != 0 {
					t.Errorf("%s: %v on a workload it is not measured on", def.Name, m.Value)
				}
			}
			for _, traced := range []bool{false, true} {
				res.Trace = traced
				line, err := res.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				checkContractLine(t, line, traced)
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
	// Under 5 s on an idle 2-core host; the ceiling leaves room for a busy
	// one. The race detector slows the workloads five times.
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("the quick profile took %v", d)
	}
}

// checkContractLine holds a run's last line to the driver's contract:
// exactly four keys, and exactly the end-to-end metrics untraced or the
// per-layer ones traced, each with a value and a unit.
func checkContractLine(t *testing.T, line []byte, traced bool) {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(doc) != 4 {
		t.Errorf("result line has %d keys, want 4", len(doc))
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, def := range metricDefs {
		if (def.Gate == gateDriver) == traced {
			continue
		}
		want++
		m, ok := metrics[def.Name]
		if !ok {
			t.Errorf("trace=%v: result line lacks %s", traced, def.Name)
			continue
		}
		if _, ok := m["value"].(float64); !ok || m["unit"] != def.Unit || len(m) != 2 {
			t.Errorf("trace=%v: %s is %v", traced, def.Name, m)
		}
	}
	if len(metrics) != want {
		t.Errorf("trace=%v: %d metrics in the result line, want %d", traced, len(metrics), want)
	}
}

// TestSpecIsBenchmarkJSON keeps BENCHMARK.json equal to what metrics.go
// prints and inside the limits the driver refuses a file for.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	spec, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(spec)) {
		t.Error("BENCHMARK.json differs from `benchmark -print-spec`; regenerate it")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var e2e, layers int
	hasSetup := false
	for _, def := range metricDefs {
		unique(def.Name)
		if !unitRE.MatchString(def.Unit) {
			t.Errorf("%s: unit %q", def.Name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("%s: better %q", def.Name, def.Better)
		}
		if def.Gate != gateDriver {
			layers++
			continue
		}
		e2e++
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v", def.Name, def.Bound)
		}
		if def.Workloads != nil {
			t.Errorf("%s: a driver-gated metric must be measured on every workload", def.Name)
		}
		if def.Name == "setup_s" {
			hasSetup = def.Unit == "s" && def.Better == "lower"
		}
	}
	if e2e < 1 || e2e > 16 || layers < 1 || layers > 128 || !hasSetup {
		t.Errorf("%d end-to-end and %d per-layer metrics, setup_s ok: %v", e2e, layers, hasSetup)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if _, ok := percentile(make([]float64, 99), 0.90); ok {
		t.Error("p90 of 99 samples has fewer than ten beyond it")
	}
	if _, ok := percentile(make([]float64, 100), 0.90); !ok {
		t.Error("p90 of 100 samples has ten beyond it")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lower", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "higher", Better: "higher", Bound: 0.10}
	fail, _ := metricByName("fail_share")
	for _, c := range []struct {
		def      metricDef
		old, cur []float64
		want     string
	}{
		{lower, []float64{100}, []float64{105}, verdictSame},
		{lower, []float64{100}, []float64{115}, verdictWorse},
		{lower, []float64{100}, []float64{85}, verdictBetter},
		{higher, []float64{100}, []float64{85}, verdictWorse},
		{higher, []float64{100}, []float64{115}, verdictBetter},
		{lower, []float64{80, 100, 120}, []float64{100, 101, 102}, verdictUnresolved},
		{lower, []float64{80, 100, 120}, []float64{70, 71, 72}, verdictUnresolved},
		{lower, []float64{80, 100, 120}, []float64{130, 131, 132}, verdictWorse},
		{lower, []float64{99, 100, 101}, []float64{100, 101, 102}, verdictSame},
		{fail, []float64{0}, []float64{0.004}, verdictSame},
		{fail, []float64{0}, []float64{0.006}, verdictWorse},
	} {
		if _, got := judge(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestCompareExitCode: a worse gated metric fails -compare, a worse
// demoted one is printed and does not.
func TestCompareExitCode(t *testing.T) {
	file := func(allocs, passMS float64) *resultFile {
		return &resultFile{Runs: []runSet{{Untraced: []*workloadResult{{
			Workload: wFig8Q9,
			Metrics: map[string]metricValue{
				"allocs_per_pass": {Value: allocs}, "pass_p50_ms": {Value: passMS}, "fail_share": {},
			},
		}}}}}
	}
	var out bytes.Buffer
	if code := compareResults(file(100, 100), file(100, 200), &out); code != 0 {
		t.Errorf("a slower demoted metric: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse (demoted)") {
		t.Errorf("the demoted verdict is not printed:\n%s", out.String())
	}
	if code := compareResults(file(100, 100), file(110, 100), &out); code != 1 {
		t.Errorf("a worse gated metric: exit %d", code)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{nameIdx: map[string]int32{}}
	add := func(name string, parent int, start, end int64) {
		tr.spans = append(tr.spans, span{id: int32(len(tr.spans)), parent: int32(parent), name: tr.nameLocked(name), start: start, end: end})
	}
	add("pass", -1, 0, 100)
	add("plan.plan", 0, 10, 30)
	add("exec.run", 0, 25, 70) // overlaps plan by 5: covered once
	self := tr.selfTimes()
	if self["pass"] != 40 || self["plan.plan"] != 20 || self["exec.run"] != 45 {
		t.Errorf("self times %v", self)
	}
}
