// Package storage provides the in-memory row store backing the engine:
// tables of typed rows and CSV import/export.
//
// The store is deliberately simple — append-only tables of []value.Value
// rows — because the paper's workload is read-mostly analytical querying;
// updates happen in bulk during identifier propagation and probability
// annotation, which rebuild affected columns in place.
package storage

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"conquer/internal/schema"
	"conquer/internal/value"
)

// ErrNoRow reports a row index outside the table (SetRow, UpdateColumn).
var ErrNoRow = errors.New("storage: row index out of range")

// Table is a relation instance: a schema plus its rows.
type Table struct {
	Schema *schema.Relation
	rows   [][]value.Value

	inj Injector // fault-injection seam; nil in production

	// version counts mutations to this table — inserts, column updates
	// and re-sorts. It is monotonic and atomic so cache layers can
	// snapshot a version vector concurrently with query execution;
	// invalidation is then a plain compare, with no epochs or TTLs
	// (DESIGN.md §11).
	version atomic.Int64
}

// NewTable creates an empty table over the given schema.
func NewTable(s *schema.Relation) *Table {
	return &Table{Schema: s}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Version returns the table's mutation counter. Two reads returning the
// same value bracket a span with no inserts, updates or sorts, so any
// result computed in between is still valid.
func (t *Table) Version() int64 { return t.version.Load() }

// bump records one mutation. Called after every successful state change.
func (t *Table) bump() { t.version.Add(1) }

// Row returns row i. The returned slice must not be mutated except through
// UpdateColumn, which bumps the version.
func (t *Table) Row(i int) []value.Value { return t.rows[i] }

// Rows returns the underlying row slice for read-only iteration.
func (t *Table) Rows() [][]value.Value { return t.rows }

// Insert appends a row after checking arity and column types. NULLs are
// accepted in any column.
func (t *Table) Insert(row []value.Value) error {
	if err := t.fail(OpInsert); err != nil {
		return fmt.Errorf("storage: inserting into %s: %w", t.Schema.Name, err)
	}
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: %s expects %d columns, got %d", t.Schema.Name, len(t.Schema.Columns), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := t.Schema.Columns[i].Type
		if v.Kind() == want {
			continue
		}
		// Int is acceptable where Float is declared.
		if want == value.KindFloat && v.Kind() == value.KindInt {
			row[i] = value.Float(v.AsFloat())
			continue
		}
		return fmt.Errorf("storage: %s.%s expects %v, got %v (%v)",
			t.Schema.Name, t.Schema.Columns[i].Name, want, v.Kind(), v)
	}
	t.rows = append(t.rows, row)
	t.bump()
	return nil
}

// SetRow replaces row i, or appends when i == Len(), with a row that
// already lives in a validated table over the same schema — a candidate
// world refills its dirty tables with rows of the relation they stand
// for (DESIGN.md §17). Arity is checked; column types are not checked
// again. It consults the fault injector as an insert.
func (t *Table) SetRow(i int, row []value.Value) error {
	if err := t.fail(OpInsert); err != nil {
		return fmt.Errorf("storage: inserting into %s: %w", t.Schema.Name, err)
	}
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: %s expects %d columns, got %d", t.Schema.Name, len(t.Schema.Columns), len(row))
	}
	switch {
	case i == len(t.rows):
		t.rows = append(t.rows, row)
	case i >= 0 && i < len(t.rows):
		t.rows[i] = row
	default:
		return fmt.Errorf("%w: %s has no row %d to replace", ErrNoRow, t.Schema.Name, i)
	}
	t.bump()
	return nil
}

// MustInsert inserts and panics on error; for tests and static fixtures
// only — data-path code must use Insert and handle the error.
func (t *Table) MustInsert(row ...value.Value) {
	if err := t.Insert(row); err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
}

// UpdateColumn overwrites column col of row i with v.
func (t *Table) UpdateColumn(i int, col string, v value.Value) error {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("storage: %s has no column %q", t.Schema.Name, col)
	}
	if i < 0 || i >= len(t.rows) {
		return fmt.Errorf("%w: %s has no row %d to update", ErrNoRow, t.Schema.Name, i)
	}
	t.rows[i][ci] = v
	t.bump()
	return nil
}

// DB is a named collection of tables.
type DB struct {
	Catalog *schema.Catalog
	tables  map[string]*Table
	inj     Injector // fault-injection seam; nil in production
}

// NewDB creates an empty database with an empty catalog.
func NewDB() *DB {
	return &DB{Catalog: schema.NewCatalog(), tables: make(map[string]*Table)}
}

// CreateTable registers the schema in the catalog and creates an empty
// table for it.
func (db *DB) CreateTable(s *schema.Relation) (*Table, error) {
	if db.inj != nil {
		if err := db.inj.Fail(s.Name, OpCreateTable); err != nil {
			return nil, fmt.Errorf("storage: creating table %s: %w", s.Name, err)
		}
	}
	if err := db.Catalog.Add(s); err != nil {
		return nil, err
	}
	t := NewTable(s)
	t.inj = db.inj
	db.tables[s.Name] = t
	return t, nil
}

// Attach registers an existing table — its rows and injector —
// under its schema's name, shared by reference with the database that
// created it: a candidate world reads clean relations this way instead
// of copying them. Whoever mutates the table mutates it for both.
func (db *DB) Attach(t *Table) error {
	if err := db.Catalog.Add(t.Schema); err != nil {
		return err
	}
	db.tables[t.Schema.Name] = t
	return nil
}

// MustCreateTable is CreateTable that panics on error; for tests and
// static fixtures only.
func (db *DB) MustCreateTable(s *schema.Relation) *Table {
	t, err := db.CreateTable(s)
	if err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
	return t
}

// Table looks up a table by case-insensitive name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns table names in creation order.
func (db *DB) TableNames() []string { return db.Catalog.Names() }

// TotalRows returns the number of rows across all tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// Clone deep-copies the database: schemas and rows. Each table's rows
// are copied into one block of values, so a clone allocates per table,
// not per row; each row is capped at its own length, so an append to one
// copies it rather than overwriting the next. A cloned row shares
// nothing with its source, but it keeps its table's whole block alive
// for as long as anything holds it. Each table keeps its version: a
// clone is the same logical state. The fault injector is not carried:
// the clone is built without one and SetInjector is how it gets one.
// OpClone is consulted once per table; on a fault no database is
// returned.
func (db *DB) Clone() (*DB, error) {
	out := NewDB()
	for _, name := range db.Catalog.Names() {
		src := db.tables[name]
		if err := src.fail(OpClone); err != nil {
			return nil, fmt.Errorf("storage: cloning %s: %w", name, err)
		}
		dst, err := out.CreateTable(src.Schema.Clone())
		if err != nil {
			return nil, fmt.Errorf("storage: cloning %s: %w", name, err)
		}
		n := 0
		for _, r := range src.rows {
			n += len(r)
		}
		block := make([]value.Value, 0, n)
		dst.rows = make([][]value.Value, len(src.rows))
		for i, r := range src.rows {
			start := len(block)
			block = append(block, r...)
			dst.rows[i] = block[start:len(block):len(block)]
		}
		dst.version.Store(src.version.Load())
	}
	return out, nil
}

// WriteCSV writes the table (with a header row) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, row := range t.rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads rows from r, which must begin with a header row whose names
// match a subset ordering of the schema columns (all schema columns must be
// present, in any order).
func (t *Table) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("storage: reading CSV header for %s: %w", t.Schema.Name, err)
	}
	pos := make([]int, len(t.Schema.Columns)) // schema col -> csv col
	for i := range pos {
		pos[i] = -1
	}
	for ci, h := range header {
		si := t.Schema.ColumnIndex(strings.TrimSpace(h))
		if si >= 0 {
			pos[si] = ci
		}
	}
	for i, p := range pos {
		if p < 0 {
			return fmt.Errorf("storage: CSV for %s is missing column %q", t.Schema.Name, t.Schema.Columns[i].Name)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("storage: reading CSV for %s: %w", t.Schema.Name, err)
		}
		row := make([]value.Value, len(t.Schema.Columns))
		for si, ci := range pos {
			if ci >= len(rec) {
				return fmt.Errorf("storage: short CSV record for %s", t.Schema.Name)
			}
			v, err := value.Parse(t.Schema.Columns[si].Type, rec[ci])
			if err != nil {
				return err
			}
			row[si] = v
		}
		if err := t.Insert(row); err != nil {
			return err
		}
	}
}

// SaveCSVFile writes the table to path.
func (t *Table) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSVFile loads rows from path.
func (t *Table) LoadCSVFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.ReadCSV(f)
}

// ShardedTable is inert: tables are not partitioned, and nothing in this
// module reads one. It stays only because the benchmark module compiles
// against it; ROADMAP item 3(b) deletes it.
type ShardedTable struct{}

// NewShardedTable returns an inert ShardedTable; see ShardedTable.
func NewShardedTable(*Table, int) *ShardedTable { return &ShardedTable{} }
