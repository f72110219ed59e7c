package dirty

import (
	"fmt"

	"conquer/internal/value"
)

// Propagate performs identifier propagation (§2.1) for one foreign key:
// every value of fkCol in relation rel — which references refKeyCol of
// refTable, a pre-matching original key — is replaced by the cluster
// identifier of the referenced tuple. After propagation, joins through
// fkCol operate on cluster identifiers, as the paper's rewriting requires.
//
// Unmatched foreign-key values are left untouched (they become dangling
// references, exactly as a real integration pipeline would surface them).
// The number of rewritten values is returned.
func (d *DB) Propagate(rel, fkCol, refTable, refKeyCol string) (int, error) {
	tb, ok := d.Store.Table(rel)
	if !ok {
		return 0, fmt.Errorf("dirty: unknown relation %q", rel)
	}
	ref, ok := d.Store.Table(refTable)
	if !ok {
		return 0, fmt.Errorf("dirty: unknown referenced relation %q", refTable)
	}
	fkIdx := tb.Schema.ColumnIndex(fkCol)
	if fkIdx < 0 {
		return 0, fmt.Errorf("dirty: %s has no column %q", rel, fkCol)
	}
	keyIdx := ref.Schema.ColumnIndex(refKeyCol)
	if keyIdx < 0 {
		return 0, fmt.Errorf("dirty: %s has no column %q", refTable, refKeyCol)
	}
	idIdx := ref.Schema.IdentifierIndex()
	if idIdx < 0 {
		return 0, fmt.Errorf("dirty: referenced relation %q has no identifier column", refTable)
	}

	// Index ref's rows by original key: heads[h] is the first row whose key
	// hashes to h, next[i] the row after i with the same hash, -1 ending
	// the chain. Pushing rows from the last makes every chain run in row
	// order, so a key held twice resolves to its first row.
	heads := make(map[uint64]int, ref.Len())
	next := make([]int, ref.Len())
	for i := ref.Len() - 1; i >= 0; i-- {
		k := ref.Row(i)[keyIdx]
		if k.IsNull() {
			continue
		}
		h := value.Hash(k)
		head, ok := heads[h]
		if !ok {
			head = -1
		}
		next[i] = head
		heads[h] = i
	}
	lookup := func(k value.Value) (value.Value, bool) {
		if k.IsNull() {
			return value.Null(), false
		}
		i, ok := heads[value.Hash(k)]
		for ok && i >= 0 {
			if row := ref.Row(i); value.Equal(row[keyIdx], k) {
				return row[idIdx], true
			}
			i = next[i]
		}
		return value.Null(), false
	}

	fkName := tb.Schema.Columns[fkIdx].Name
	changed := 0
	for i := 0; i < tb.Len(); i++ {
		fk := tb.Row(i)[fkIdx]
		id, ok := lookup(fk)
		if !ok {
			continue
		}
		if !value.Equal(id, fk) {
			if err := tb.UpdateColumn(i, fkName, id); err != nil {
				return changed, err
			}
			changed++
		}
	}
	return changed, nil
}

// PropagateAll runs Propagate for every declared foreign key of every
// relation, using each foreign key's RefColumn as the referenced original
// key. It returns the total number of rewritten values.
func (d *DB) PropagateAll() (int, error) {
	total := 0
	for _, name := range d.Store.TableNames() {
		tb, _ := d.Store.Table(name)
		for _, fk := range tb.Schema.ForeignKeys {
			ref, ok := d.Store.Table(fk.RefTable)
			if !ok {
				return total, fmt.Errorf("dirty: %s.%s references unknown relation %q", name, fk.Column, fk.RefTable)
			}
			if !ref.Schema.IsDirty() {
				continue // clean target: keys already canonical
			}
			refKey := fk.RefColumn
			if refKey == "" {
				return total, fmt.Errorf("dirty: foreign key %s.%s has no referenced column", name, fk.Column)
			}
			n, err := d.Propagate(name, fk.Column, fk.RefTable, refKey)
			if err != nil {
				return total, err
			}
			total += n
		}
	}
	return total, nil
}
