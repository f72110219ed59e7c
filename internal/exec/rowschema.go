// Package exec implements the physical query operators: scans, filters,
// hash joins, index nested-loop joins, projection, hash aggregation,
// sorting, DISTINCT and LIMIT — all pull-based iterators — together with a
// compiler from sqlparse expressions to evaluators over operator rows.
package exec

import (
	"fmt"
	"strings"

	"conquer/internal/value"
)

// ColInfo describes one column of an operator's output.
type ColInfo struct {
	Qualifier string // table alias that produced the column ("" for derived)
	Name      string
	Type      value.Kind
}

// RowSchema is the ordered column layout of an operator's rows.
type RowSchema []ColInfo

// Resolve returns the position of the column matching the (possibly empty)
// qualifier and name. Unqualified lookups that match more than one column
// are ambiguous and rejected.
func (rs RowSchema) Resolve(qualifier, name string) (int, error) {
	qualifier = strings.ToLower(qualifier)
	name = strings.ToLower(name)
	found := -1
	for i, c := range rs {
		if c.Name != name {
			continue
		}
		if qualifier != "" && c.Qualifier != qualifier {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("exec: ambiguous column reference %q", refString(qualifier, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("exec: unknown column %q", refString(qualifier, name))
	}
	return found, nil
}

func refString(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// Concat appends the columns of other after rs.
func (rs RowSchema) Concat(other RowSchema) RowSchema {
	out := make(RowSchema, 0, len(rs)+len(other))
	out = append(out, rs...)
	out = append(out, other...)
	return out
}

// Names returns the bare column names in order.
func (rs RowSchema) Names() []string {
	out := make([]string, len(rs))
	for i, c := range rs {
		out[i] = c.Name
	}
	return out
}

// Operator is a pull-based physical operator that moves rows a batch at
// a time (DESIGN.md §15). Usage:
//
//	if err := op.Open(); err != nil { ... }
//	defer op.Close()
//	b := NewBatch(0)
//	for {
//		if err := op.NextBatch(b); err != nil { ... }
//		if b.Len() == 0 { break } // exhausted
//		for i := 0; i < b.Len(); i++ { ... b.Row(i) ... }
//	}
//
// NextBatch resets and refills b; an empty batch means the operator is
// exhausted. Row slices handed out through a plain batch (NewBatch) may be
// retained by the caller — operators never mutate such a row — but the
// Batch itself (its rows/sel backing arrays) is owned by the caller and
// reused across calls, so consumers that buffer rows copy the row
// *references* out before the next call and never retain the Batch. A
// consumer that copies the *values* it needs instead pulls through a
// NewTransientBatch, whose rows die at its next NextBatch on that batch.
// An operator that passes b on to its child passes that lifetime on with
// it, so it may keep row references only if it refuses a transient b.
type Operator interface {
	Schema() RowSchema
	Open() error
	NextBatch(b *Batch) error
	Close() error
	// Describe returns a one-line description for EXPLAIN output.
	Describe() string
}

// Collect drains op into a slice of rows, handling Open/Close: the
// ungoverned root-level "give me the rows" helper.
func Collect(op Operator) ([][]value.Value, error) {
	rows, _, err := CollectBatchesGoverned(op, nil, 0)
	return rows, err
}

// Explain renders the operator tree, one operator per line, children
// indented under parents.
func Explain(op Operator) string {
	var b strings.Builder
	explain(&b, op, 0)
	return b.String()
}

func explain(b *strings.Builder, op Operator, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(op.Describe())
	b.WriteByte('\n')
	for _, c := range children(op) {
		if c != nil {
			explain(b, c, depth+1)
		}
	}
}

// children returns op's inputs, left to right, nil where there is none
// (a probe shard's right input belongs to the shared build). Every tree
// walk of a run (Attach, Instrument, the stats readers) calls it once per
// node, and an array comes back on the stack.
func children(op Operator) (kids [2]Operator) {
	switch op := op.(type) {
	case *Gather:
		kids[0] = op.Child
	case *Filter:
		kids[0] = op.Child
	case *Project:
		kids[0] = op.Child
	case *HashJoin:
		kids[0], kids[1] = op.Left, op.Right
	case *HashAggregate:
		kids[0] = op.Child
	case *Sort:
		kids[0] = op.Child
	case *Distinct:
		kids[0] = op.Child
	case *Limit:
		kids[0] = op.Child
	}
	return kids
}
