// Command benchmark is the repository's one benchmark: six named
// workloads, end-to-end metrics with regression bounds, and a per-layer
// trace recorded from outside the program by timing calls into each
// layer's public functions. README.md explains the workloads, the metrics
// and how they interact; BENCHMARK.json at the repository root is printed
// from the tables in metrics.go.
//
//	benchmark -workload fig8_q9 -seed 42 -seconds 10 -trace 0   one run, one JSON line last
//	benchmark -seed 42 -out out/result.json                     all six, untraced then traced
//	benchmark -compare old.json new.json                        verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process; empty runs all six, each in a child process")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of statement order, Monte-Carlo samples and the generated instances the correctness gate also checks; the timed instances are pinned (dataSeed)")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1 adds the traced phase and prints the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny sizes and a handful of passes: proves the workloads run, its numbers are not results")
	fs.StringVar(&cfg.outdir, "outdir", "out", "directory for trace files")
	out := fs.String("out", "", "with no -workload: write the result file here (default <outdir>/result.json)")
	detail := fs.String("detail", "", "with -workload: also write the run's full result as JSON here")
	repeat := fs.Int("repeat", 1, "with no -workload: untraced run-sets to make, so that -compare has quartiles; seven or more keep one slow run-set out of them")
	compare := fs.Bool("compare", false, "compare two result files: benchmark -compare old.json new.json")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	switch {
	case *printSpec:
		spec, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", spec)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case cfg.workload == "":
		if *out == "" {
			*out = filepath.Join(cfg.outdir, "result.json")
		}
		return runAll(cfg, *repeat, *out, stdout, stderr)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprint(stdout, res.report())
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !cfg.quick { // quick numbers are never results: no result line
		line, err := res.contractLine()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outdir   string
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int64
	failures          []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

// instance is one set-up workload.
type instance interface {
	// gate is the correctness gate run once after set-up: every answer at
	// the shipped defaults against a Parallelism=1, Shards=1 run.
	gate(t *tally)
	// measure runs passes for about budget and returns what it timed.
	// With a tracer it runs the workload's traced variant and fills the
	// per-layer metrics into m.layer.
	measure(budget time.Duration, tr *tracer, t *tally) *measurement
	// finish runs the end-of-run checks.
	finish(t *tally)
	// facts are set-up numbers: uisgen.generate_s, uisgen.rows.
	facts() (generateS float64, rows int)
	close()
}

// measurement is what one measuring phase timed.
type measurement struct {
	passMS   []float64 // one per timed pass
	ops      int64     // statements (or operations) inside those passes
	elapsedS float64   // the time ops_per_s divides by
	// runtime.MemStats deltas of one pass.
	mallocsPerPass, bytesPerPass float64
	// extra holds the workload's own end-to-end metrics by name, layer the
	// per-layer ones of a traced phase.
	extra map[string]metricValue
	layer map[string]float64
}

func newMeasurement() *measurement {
	return &measurement{extra: map[string]metricValue{}, layer: map[string]float64{}}
}

func (m *measurement) setExtra(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	m.extra[name] = metricValue{Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// countedPasses is how many leading passes the allocation counts are
// read from. Passes past it depend on how fast the host was; the first
// ones are the same work in every run, so their counts repeat.
const countedPasses = 3

// timedPasses calls pass until budget has gone by and at least minPasses
// ran, recording each pass's own time (what pass returns: a pass may
// leave its checks out of it) and, as the medians over the first
// countedPasses passes, its allocation deltas. One collection before the
// first pass drops set-up's garbage; after it the collector runs when the
// program's own allocation makes it, inside the passes, as it does for a
// user.
func timedPasses(m *measurement, budget time.Duration, minPasses, maxPasses int, pass func(i int) (time.Duration, int64)) {
	var before, after runtime.MemStats
	var mallocs, bytes []float64
	runtime.GC()
	start := time.Now()
	for i := 0; (i < minPasses || time.Since(start) < budget) && (maxPasses <= 0 || i < maxPasses); i++ {
		if i < countedPasses {
			runtime.ReadMemStats(&before)
		}
		d, ops := pass(i)
		if i < countedPasses {
			runtime.ReadMemStats(&after)
			mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
			bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		m.passMS = append(m.passMS, float64(d)/float64(time.Millisecond))
		m.ops += ops
		m.elapsedS += d.Seconds()
	}
	m.mallocsPerPass, m.bytesPerPass = median(mallocs), median(bytes)
}

var setups = map[string]func(cfg runConfig) (instance, error){
	wFig8Short: func(cfg runConfig) (instance, error) { return setupFig8(cfg, false) },
	wFig8Q9:    func(cfg runConfig) (instance, error) { return setupFig8(cfg, true) },
	wCacheZipf: setupCacheZipf,
	wServe:     setupServe,
	wOffline:   setupOffline,
	wLadder:    setupLadder,
}

// setupReps is how often a run sets up: setup_s is the median.
const setupReps = 3

// runWorkload sets the workload up, checks it, measures it and returns
// every metric the run produced.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	setup, ok := setups[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wall := time.Now()
	res := &workloadResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metricValue{},
	}
	for _, def := range metricDefs {
		res.set(def.Name, 0)
	}

	var inst instance
	var setupS []float64
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()
	res.setMedian("setup_s", setupS)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("setup_heap_mb", float64(ms.HeapAlloc)/1e6)
	genS, rows := inst.facts()
	res.set("uisgen.generate_s", genS)
	res.set("uisgen.rows", float64(rows))

	var t tally
	inst.gate(&t)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	untraced := budget
	if cfg.trace {
		// The traced run still needs an untraced reference in the same
		// process: trace.overhead_share compares the two.
		untraced = budget * 2 / 5
	}
	m := inst.measure(untraced, nil, &t)
	if len(m.passMS) == 0 {
		return nil, fmt.Errorf("%s: no pass was timed", cfg.workload)
	}
	res.setMedian("pass_p50_ms", m.passMS)
	res.set("ops_per_s", float64(m.ops)/m.elapsedS)
	res.set("allocs_per_pass", m.mallocsPerPass)
	res.set("kb_per_pass", m.bytesPerPass/1024)
	for name, v := range m.extra {
		res.setSamples(name, v.Value, v.Q1, v.Q3, v.N)
	}

	if cfg.trace {
		tr := newTracer()
		mt := inst.measure(budget-untraced, tr, &t)
		for name, v := range mt.layer {
			res.set(name, v)
		}
		if len(mt.passMS) > 0 {
			res.set("trace.overhead_share", median(mt.passMS)/median(m.passMS)-1)
		}
		if u := res.Metrics["engine.unattributed_share"].Value; u > 0.10 {
			res.Notes = append(res.Notes, fmt.Sprintf("engine.unattributed_share %.3f: the trace leaves more than a tenth of the pass unexplained", u))
		}
		path, err := tr.write(cfg.outdir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", cfg.workload, err)
		}
		res.TraceFile = path
	}
	inst.finish(&t)

	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
	res.Correct = t.failed == 0 && t.attempted > 0
	if t.attempted > 0 {
		res.set("fail_share", float64(t.failed)/float64(t.attempted))
	}
	res.WallS = time.Since(wall).Seconds()
	return res, nil
}

// hostFacts head a result file.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

func collectHostFacts() hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit:  os.Getenv("BENCH_COMMIT"), // run.sh exports git's HEAD when there is one
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// runSet is one pass over the six workloads untraced; the first of a
// file is followed by the traced runs.
type runSet struct {
	Untraced []*workloadResult `json:"untraced"`
	Traced   []*workloadResult `json:"traced,omitempty"`
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Host    hostFacts `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []runSet  `json:"runs"`
}

// runAll runs every workload in a fresh child process, so heap and
// allocation counts are isolated, untraced first and then traced. Repeats
// go run-set by run-set, not workload by workload, so that a slow minute
// on the host costs each workload one sample and not one workload all of
// them; only -compare reads them, and it reads untraced runs, so the
// traced runs are made once.
func runAll(cfg runConfig, repeat int, out string, stdout, stderr io.Writer) int {
	if cfg.quick {
		fmt.Fprintln(stderr, "benchmark: -quick numbers are never written as results; name a -workload")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	file := resultFile{Host: collectHostFacts(), Seed: cfg.seed, Seconds: cfg.seconds}
	fmt.Fprintf(stdout, "host: nproc %d, GOMAXPROCS %d, %s %s, commit %s\n",
		file.Host.NProc, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.OSArch, file.Host.Commit)
	code := 0
	for r := 0; r < repeat; r++ {
		var set runSet
		start := time.Now()
		phases := []bool{false}
		if r == 0 {
			phases = append(phases, true)
		}
		for _, traced := range phases {
			for _, w := range workloadDefs {
				res, err := runChild(self, cfg, w.Name, traced)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				fmt.Fprint(stdout, res.report())
				if !res.Correct {
					code = 1
				}
				if traced {
					set.Traced = append(set.Traced, res)
				} else {
					set.Untraced = append(set.Untraced, res)
				}
			}
			if !traced {
				fmt.Fprintf(stdout, "untraced run-set %d took %.1f s\n", r+1, time.Since(start).Seconds())
			}
		}
		file.Runs = append(file.Runs, set)
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return code
}

func runChild(self string, cfg runConfig, workload string, traced bool) (*workloadResult, error) {
	detail := filepath.Join(cfg.outdir, "detail-"+workload+".json")
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-outdir", cfg.outdir, "-detail", detail)
	var errOut strings.Builder
	cmd.Stderr = &errOut
	// The child's exit code 1 means a failed check; its detail file still
	// holds the result. Anything without a detail file is an error.
	runErr := cmd.Run()
	defer os.Remove(detail)
	data, err := os.ReadFile(detail)
	if err != nil {
		return nil, fmt.Errorf("child failed (%v): %s", runErr, errOut.String())
	}
	var res workloadResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("child's detail file: %w", err)
	}
	return &res, nil
}
