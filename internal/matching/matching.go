// Package matching provides a tuple-matching substrate: a
// blocking-plus-similarity duplicate detector that produces the clustering
// the paper's pipeline assumes as input (§2.1).
//
// The paper deliberately treats tuple matching as a pluggable black box —
// "it is beyond the scope of this paper to compare the relative advantages
// of different tuple matching techniques" — so this implementation is a
// standard, simple design: tuples are grouped into blocks by a blocking
// key (to avoid the quadratic all-pairs comparison), compared pairwise
// within each block with a string-similarity measure, and linked into
// clusters with union-find when their similarity exceeds a threshold.
package matching

import (
	"fmt"
	"strings"

	"conquer/internal/probcalc"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Config tunes the matcher. The zero value uses sensible defaults.
type Config struct {
	// Threshold is the minimum similarity (in [0,1]) for two tuples to be
	// linked as duplicates. Defaults to 0.75.
	Threshold float64
	// BlockKey maps a tuple to its blocking key; only tuples sharing a key
	// are compared. Defaults to the lower-cased first two letters of the
	// first attribute — wide enough to keep common typo variants (Jon /
	// John) in one block while still pruning the quadratic comparison.
	BlockKey func(tuple []string) string
	// Similarity scores two tuples in [0,1]. Defaults to
	// 1 − probcalc.AvgEditDistance.
	Similarity func(a, b []string) float64
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 { //lint:allow floatcmp -- zero-value config sentinel, not a computed probability
		c.Threshold = 0.75
	}
	if c.BlockKey == nil {
		c.BlockKey = DefaultBlockKey
	}
	if c.Similarity == nil {
		c.Similarity = func(a, b []string) float64 { return 1 - probcalc.AvgEditDistance(a, b) }
	}
	return c
}

// DefaultBlockKey lower-cases the first attribute and keeps its first two
// letters.
func DefaultBlockKey(tuple []string) string {
	if len(tuple) == 0 {
		return ""
	}
	s := strings.ToLower(strings.TrimSpace(tuple[0]))
	if len(s) > 2 {
		s = s[:2]
	}
	return s
}

// Cluster partitions tuples into duplicate groups and returns a cluster
// index (0-based, dense) per tuple.
func Cluster(tuples [][]string, cfg Config) []int {
	cfg = cfg.withDefaults()
	parent := make([]int, len(tuples))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	blocks := map[string][]int{}
	for i, t := range tuples {
		k := cfg.BlockKey(t)
		blocks[k] = append(blocks[k], i)
	}
	for _, members := range blocks {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if find(a) == find(b) {
					continue
				}
				if cfg.Similarity(tuples[a], tuples[b]) >= cfg.Threshold {
					union(a, b)
				}
			}
		}
	}

	// Densify roots into 0..k-1 in order of first appearance.
	dense := map[int]int{}
	out := make([]int, len(tuples))
	for i := range tuples {
		r := find(i)
		id, ok := dense[r]
		if !ok {
			id = len(dense)
			dense[r] = id
		}
		out[i] = id
	}
	return out
}

// extractTuples pulls the textual attribute tuples of a dirty table;
// attrCols nil means every column except the identifier and probability
// columns.
func extractTuples(tb *storage.Table, attrCols []string) ([][]string, error) {
	rel := tb.Schema
	idIdx := rel.IdentifierIndex()
	if idIdx < 0 {
		return nil, fmt.Errorf("matching: relation %s has no identifier column", rel.Name)
	}
	var cols []int
	if attrCols == nil {
		for i := range rel.Columns {
			if i != idIdx && i != rel.ProbIndex() {
				cols = append(cols, i)
			}
		}
	} else {
		for _, name := range attrCols {
			ci := rel.ColumnIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("matching: relation %s has no column %q", rel.Name, name)
			}
			cols = append(cols, ci)
		}
	}
	tuples := make([][]string, tb.Len())
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		t := make([]string, len(cols))
		for k, ci := range cols {
			t[k] = row[ci].String()
		}
		tuples[i] = t
	}
	return tuples, nil
}

// writeIdentifiers stores prefix+cluster identifiers and returns the
// cluster count.
func writeIdentifiers(tb *storage.Table, prefix string, clusters []int) (int, error) {
	idCol := tb.Schema.Columns[tb.Schema.IdentifierIndex()].Name
	max := -1
	for i, c := range clusters {
		if c > max {
			max = c
		}
		if err := tb.UpdateColumn(i, idCol, value.Str(fmt.Sprintf("%s%d", prefix, c))); err != nil {
			return 0, err
		}
	}
	return max + 1, nil
}

// MatchTable clusters a stored table on the given attribute columns (nil
// means all columns except the identifier and probability columns) and
// writes cluster identifiers of the form prefix+N into the identifier
// column. It returns the number of clusters found.
func MatchTable(tb *storage.Table, attrCols []string, prefix string, cfg Config) (int, error) {
	tuples, err := extractTuples(tb, attrCols)
	if err != nil {
		return 0, err
	}
	return writeIdentifiers(tb, prefix, Cluster(tuples, cfg))
}
