package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the program under test. It holds no pointers, so
// the spans kept in memory add nothing for the collector to scan: the
// ladder workload collects a hundred times a pass.
type span struct {
	id, parent int32 // parent is -1 for a root
	name       int32 // index into tracer.names
	pass, item int32 // the request: spans of one request share both
	start, end int64 // ns since the trace began
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same pass code runs traced and untraced.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	names   []string // <module>.<call>
	nameIdx map[string]int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), nameIdx: map[string]int32{}} }

func (t *tracer) nameLocked(name string) int32 {
	i, ok := t.nameIdx[name]
	if !ok {
		i = int32(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = i
	}
	return i
}

// begin opens a span for item (a statement or operation) of pass and
// returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, pass, item int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		id: int32(id), parent: int32(parent), name: t.nameLocked(name),
		pass: int32(pass), item: int32(item), start: now,
	})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	d := now - t.spans[id].start
	t.mu.Unlock()
	return time.Duration(d)
}

// rename relabels a span whose kind is only known once the call returned
// (a cache hit or a miss).
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].name = t.nameLocked(name)
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, edge := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, edge), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[t.names[s.name]] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	type spanJSON struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Req    string `json:"req"` // pass/item
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	doc := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfUS   map[string]int64 `json:"self_us"`
		Spans    []spanJSON       `json:"spans"`
	}{Workload: workload, Seed: seed, SelfUS: map[string]int64{}}
	for name, d := range t.selfTimes() {
		doc.SelfUS[name] = d.Microseconds()
	}
	for _, s := range t.spans {
		doc.Spans = append(doc.Spans, spanJSON{s.id, s.parent, t.names[s.name], fmt.Sprintf("%d/%d", s.pass, s.item), s.start, s.end})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
