package exec

import (
	"strings"
	"testing"
)

func TestInstrumentSerialPipelineCounts(t *testing.T) {
	fact, _ := parTables(t, 3000)
	p := scanFilterProject(t, fact)
	Instrument(p)
	rows := mustCollect(t, p)

	lines := StatsTree(p)
	if len(lines) != 3 {
		t.Fatalf("StatsTree lines = %d, want 3:\n%+v", len(lines), lines)
	}
	proj, filt, scan := lines[0], lines[1], lines[2]
	if scan.Out != int64(fact.Len()) {
		t.Errorf("scan out = %d, want %d", scan.Out, fact.Len())
	}
	if filt.In != scan.Out {
		t.Errorf("filter in = %d, want scan out %d", filt.In, scan.Out)
	}
	if filt.Out != int64(len(rows)) || proj.Out != int64(len(rows)) {
		t.Errorf("filter out = %d, project out = %d, want %d rows", filt.Out, proj.Out, len(rows))
	}
	if proj.In != filt.Out {
		t.Errorf("project in = %d, want filter out %d", proj.In, filt.Out)
	}
	if scan.Batches != 1 {
		t.Errorf("serial scan batches = %d, want 1", scan.Batches)
	}
	if err := CheckConservation(p); err != nil {
		t.Error(err)
	}
}

// Parallel execution shares the template's stats blocks between worker
// clones, so the instrumented template tree reports totals identical to
// the serial run and still satisfies conservation.
func TestInstrumentParallelGatherCounts(t *testing.T) {
	fact, _ := parTables(t, 3000)

	serial := scanFilterProject(t, fact)
	Instrument(serial)
	want := mustCollect(t, serial)
	wantLines := StatsTree(serial)

	par := NewGather(scanFilterProject(t, fact))
	setMorselSize(t, 64)
	Instrument(par)
	requireSameRows(t, want, mustCollectOn(t, par, 4))
	if err := CheckConservation(par); err != nil {
		t.Error(err)
	}

	gotLines := StatsTree(par)
	if gotLines[0].In != int64(len(want)) || gotLines[0].Out != int64(len(want)) {
		t.Errorf("gather in/out = %d/%d, want %d", gotLines[0].In, gotLines[0].Out, len(want))
	}
	// Below the Gather the counters must match the serial run exactly.
	for i, wl := range wantLines {
		gl := gotLines[i+1]
		if gl.In != wl.In || gl.Out != wl.Out {
			t.Errorf("%s: parallel in/out = %d/%d, serial = %d/%d", wl.Op, gl.In, gl.Out, wl.In, wl.Out)
		}
	}
	// The scan's batches are the morsels claimed; with morsel size 64 over
	// 3000 rows that is ceil(3000/64) = 47, split across the workers.
	scanLine := gotLines[len(gotLines)-1]
	if scanLine.Batches != 47 {
		t.Errorf("parallel scan batches = %d, want 47 morsels", scanLine.Batches)
	}
	g := par
	var claimed int64
	for _, m := range g.workerMorsels {
		claimed += m
	}
	if claimed != 47 {
		t.Errorf("worker morsel claims sum to %d, want 47: %v", claimed, g.workerMorsels)
	}
}

func TestInstrumentJoinConservation(t *testing.T) {
	fact, dim := parTables(t, 3000)
	for _, par := range []int{1, 4} {
		j := buildJoin(t, fact, dim, 32)
		Instrument(j)
		rows := mustCollectOn(t, j, par)
		if err := CheckConservation(j); err != nil {
			t.Errorf("parallelism %d: %v", par, err)
		}
		lines := StatsTree(j)
		join := lines[0]
		if join.In != int64(fact.Len()+dim.Len()) {
			t.Errorf("parallelism %d: join in = %d, want %d", par, join.In, fact.Len()+dim.Len())
		}
		if join.Out != int64(len(rows)) {
			t.Errorf("parallelism %d: join out = %d, want %d", par, join.Out, len(rows))
		}
		if join.Buffered != int64(dim.Len()) {
			t.Errorf("parallelism %d: join buffered = %d, want build side %d", par, join.Buffered, dim.Len())
		}
	}
}

func TestExplainAnalyzeFormat(t *testing.T) {
	fact, _ := parTables(t, 3000)
	g := NewGather(scanFilterProject(t, fact))
	setMorselSize(t, 64)
	Instrument(g)
	mustCollectOn(t, g, 4)
	out := ExplainAnalyze(g)
	if !strings.Contains(out, "Gather[n=4]") || !strings.Contains(out, "morsels=[w0:") {
		t.Errorf("missing Gather morsel report:\n%s", out)
	}
	if !strings.Contains(out, "Scan(fact") {
		t.Errorf("missing scan line:\n%s", out)
	}
	if !strings.Contains(out, "in=") || !strings.Contains(out, "out=") || !strings.Contains(out, "time=") {
		t.Errorf("missing counters:\n%s", out)
	}
	// Attach counts without timing: the counters print, the window is 0.
	bare := scanFilterProject(t, fact)
	mustCollect(t, bare)
	if out := ExplainAnalyze(bare); !strings.Contains(out, "out=") || !strings.Contains(out, "time=0s)") {
		t.Errorf("an attached, untimed tree should report counters and no time:\n%s", out)
	}
}
