// Package versionbumpfix seeds violations of the mutate-implies-bump
// contract that keeps the versioned query cache honest.
package versionbumpfix

import (
	"errors"
	"sort"
	"sync/atomic"
)

// Table mirrors storage.Table: a version counter advanced by bump()
// after every mutation.
type Table struct {
	rows    [][]string
	indexes map[string][]int
	version atomic.Int64
}

func (t *Table) bump() { t.version.Add(1) }

// Insert is the compliant shape: mutate, then bump on the success path.
func (t *Table) Insert(row []string) error {
	if row == nil {
		return errors.New("nil row")
	}
	t.rows = append(t.rows, row)
	t.bump()
	return nil
}

// InsertNoBump is Insert with the bump() deleted: the cache keeps
// serving the old rows.
func (t *Table) InsertNoBump(row []string) error {
	if row == nil {
		return errors.New("nil row")
	}
	t.rows = append(t.rows, row)
	return nil // want `InsertNoBump mutates the receiver but this success path returns without calling bump`
}

// UpdateBranchy bumps on one branch but leaks the other: the solver
// must see the unbumped path through the else branch.
func (t *Table) UpdateBranchy(i int, row []string, audit bool) error {
	if i < 0 || i >= len(t.rows) {
		return errors.New("out of range")
	}
	t.rows[i] = row
	if audit {
		t.bump()
		return nil
	}
	return nil // want `UpdateBranchy mutates the receiver but this success path returns without calling bump`
}

// CreateIndex has an early success return BEFORE any mutation: no
// obligation yet, so no finding.
func (t *Table) CreateIndex(name string) error {
	if _, ok := t.indexes[name]; ok {
		return nil // compliant: nothing mutated yet
	}
	t.indexes[name] = []int{}
	t.bump()
	return nil
}

// ErrorPath fails after mutating; error returns must NOT bump (the data
// never became visible), so this is compliant.
func (t *Table) ErrorPath(row []string) error {
	t.rows = append(t.rows, row)
	if len(t.rows) > 1000 {
		t.rows = t.rows[:1000]
		return errors.New("table full") // compliant: error path
	}
	t.bump()
	return nil
}

// DeferBump discharges the obligation with a deferred bump, which runs
// on every exit.
func (t *Table) DeferBump(row []string) error {
	defer t.bump()
	t.rows = append(t.rows, row)
	return nil
}

// SortRows mutates through a sort call and falls off the end without a
// return statement.
func (t *Table) SortRows() { // want `SortRows mutates the receiver but can fall off the end without calling bump`
	sort.Slice(t.rows, func(i, j int) bool { return t.rows[i][0] < t.rows[j][0] })
}

// ManualBump advances the version counter directly instead of through
// bump(): an accepted discharge.
func (t *Table) ManualBump(row []string) error {
	t.rows = append(t.rows, row)
	t.version.Add(1)
	return nil
}

// Len only reads: no obligation, no finding.
func (t *Table) Len() int {
	return len(t.rows)
}

// reindex is unexported: internal helpers may defer bumping to their
// exported callers.
func (t *Table) reindex() {
	t.indexes = map[string][]int{}
}

// Rebuild is the delegating shape: the writes live in an unexported
// helper and the exported caller bumps afterwards. The
// one-level interprocedural reach must raise the obligation at the
// reindex() call and see it discharged.
func (t *Table) Rebuild() {
	t.reindex()
	t.bump()
}

// RebuildNoBump delegates the mutation and forgets the bump: the
// obligation raised through reindex() leaks off the end.
func (t *Table) RebuildNoBump() { // want `RebuildNoBump mutates the receiver but can fall off the end without calling bump`
	t.reindex()
}

// RebuildBranchyNoBump only sometimes reaches the delegated mutation;
// the mutating branch must still be flagged.
func (t *Table) RebuildBranchyNoBump(stale bool) error {
	if stale {
		t.reindex()
	}
	return nil // want `RebuildBranchyNoBump mutates the receiver but this success path returns without calling bump`
}

// logSize only reads; calling it raises no obligation.
func (t *Table) logSize() {
	_ = len(t.rows)
}

// Touch statement-calls a read-only helper: no finding.
func (t *Table) Touch() {
	t.logSize()
}

// Plain has no bump method; its mutators are out of scope.
type Plain struct{ n int }

func (p *Plain) Set(n int) { p.n = n }

// Allowed documents a deliberate non-bumping mutator.
func (t *Table) Allowed(row []string) error {
	t.rows = append(t.rows, row)
	//lint:allow versionbump -- staging write, made visible by a later Commit
	return nil
}
