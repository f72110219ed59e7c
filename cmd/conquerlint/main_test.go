package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// lint runs the driver against the fixture module under testdata/mod.
func lint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(append([]string{"-C", "testdata/mod"}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestFindingsExitOne(t *testing.T) {
	code, stdout, stderr := lint(t, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "floating-point equality comparison") {
		t.Errorf("stdout missing the floatcmp finding:\n%s", stdout)
	}
	// Exactly one finding: Waived's violation is suppressed.
	if n := strings.Count(stdout, "[floatcmp]"); n != 1 {
		t.Errorf("got %d floatcmp findings, want 1:\n%s", n, stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr missing the summary: %q", stderr)
	}
}

func TestCleanPackageExitZero(t *testing.T) {
	code, stdout, stderr := lint(t, "clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %q", stdout)
	}
}

func TestPackagePatternSelectsOneDir(t *testing.T) {
	// Linting only clean/ must not see dirty/'s violation.
	if code, stdout, _ := lint(t, "./clean"); code != 0 || stdout != "" {
		t.Errorf("./clean: exit=%d stdout=%q, want clean run", code, stdout)
	}
	if code, _, _ := lint(t, "./dirty"); code != 1 {
		t.Errorf("./dirty: exit=%d, want 1", code)
	}
}

func TestBadPatternExitTwo(t *testing.T) {
	code, _, stderr := lint(t, "no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %q)", code, stderr)
	}
	if !strings.Contains(stderr, "conquerlint:") {
		t.Errorf("stderr missing error: %q", stderr)
	}
}

func TestUnknownAnalyzerExitTwo(t *testing.T) {
	code, _, stderr := lint(t, "-only", "nosuchcheck", "./...")
	if code != 2 || !strings.Contains(stderr, "unknown analyzer") {
		t.Fatalf("exit = %d stderr = %q, want 2 with unknown-analyzer error", code, stderr)
	}
}

func TestOnlySubsetSkipsOtherAnalyzers(t *testing.T) {
	// nopanic alone has nothing to say about dirty/.
	if code, stdout, _ := lint(t, "-only", "nopanic", "./dirty"); code != 0 || stdout != "" {
		t.Errorf("-only nopanic: exit=%d stdout=%q, want clean run", code, stdout)
	}
}

func TestListExitsZero(t *testing.T) {
	code, stdout, _ := lint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"ctxpoll", "errwrap", "floatcmp", "maporder", "nopanic", "probflow"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing %s:\n%s", name, stdout)
		}
	}
}

func TestJSONReport(t *testing.T) {
	code, stdout, _ := lint(t, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep struct {
		Analyzers []string `json:"analyzers"`
		Packages  int      `json:"packages"`
		Findings  []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(rep.Analyzers) != 6 {
		t.Errorf("got %d analyzers, want 6", len(rep.Analyzers))
	}
	if rep.Packages != 2 {
		t.Errorf("got %d packages, want 2", rep.Packages)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(rep.Findings), rep.Findings)
	}
	f := rep.Findings[0]
	if f.Analyzer != "floatcmp" || f.File != "dirty/dirty.go" || f.Line == 0 || f.Col == 0 {
		t.Errorf("unexpected finding: %+v", f)
	}
	if !strings.Contains(f.Message, "floating-point equality") {
		t.Errorf("unexpected message: %q", f.Message)
	}
}

func TestJSONCleanRunIsStable(t *testing.T) {
	code, stdout, _ := lint(t, "-json", "clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var rep struct {
		Findings []any `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if rep.Findings == nil {
		t.Errorf("findings must be an empty array, not null:\n%s", stdout)
	}
}

func TestAllowsFailsOnStale(t *testing.T) {
	code, stdout, stderr := lint(t, "-allows", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stale annotation present)\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "floatcmp used") {
		t.Errorf("used annotation not reported as used:\n%s", stdout)
	}
	if !strings.Contains(stdout, "STALE (suppresses nothing)") {
		t.Errorf("stale annotation not flagged:\n%s", stdout)
	}
	if !strings.Contains(stderr, "stale lint:allow") {
		t.Errorf("stderr missing the stale summary: %q", stderr)
	}
}

func TestAllowsJSON(t *testing.T) {
	code, stdout, _ := lint(t, "-allows", "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var allows []struct {
		File   string `json:"file"`
		Line   int    `json:"line"`
		Name   string `json:"analyzer"`
		Reason string `json:"reason"`
		Used   bool   `json:"used"`
		Stale  bool   `json:"stale"`
	}
	if err := json.Unmarshal([]byte(stdout), &allows); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(allows) != 2 {
		t.Fatalf("got %d annotations, want 2: %+v", len(allows), allows)
	}
	var used, stale int
	for _, a := range allows {
		if a.Name != "floatcmp" || a.File != "dirty/dirty.go" || a.Reason == "" {
			t.Errorf("unexpected annotation: %+v", a)
		}
		if a.Used && !a.Stale {
			used++
		}
		if a.Stale {
			stale++
		}
	}
	if used != 1 || stale != 1 {
		t.Errorf("used=%d stale=%d, want 1 and 1: %+v", used, stale, allows)
	}
}
