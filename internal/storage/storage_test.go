package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/value"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled = false

func custSchema() *schema.Relation {
	return schema.MustRelation("customer",
		schema.Column{Name: "custid", Type: value.KindString},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "balance", Type: value.KindFloat},
	)
}

func TestInsertAndRead(t *testing.T) {
	tb := NewTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	tb.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(27000))
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.Row(1)[1].AsString() != "Mary" {
		t.Error("Row(1) wrong")
	}
	if len(tb.Rows()) != 2 {
		t.Error("Rows()")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tb := NewTable(custSchema())
	if err := tb.Insert([]value.Value{value.Str("c1"), value.Str("x")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tb.Insert([]value.Value{value.Int(1), value.Str("x"), value.Float(0)}); err == nil {
		t.Error("int into varchar should fail")
	}
	// Int widens into float column.
	if err := tb.Insert([]value.Value{value.Str("c1"), value.Str("x"), value.Int(5)}); err != nil {
		t.Errorf("int should widen into FLOAT column: %v", err)
	}
	if tb.Row(0)[2].Kind() != value.KindFloat {
		t.Error("widened value should be stored as float")
	}
	// NULL allowed anywhere.
	if err := tb.Insert([]value.Value{value.Null(), value.Null(), value.Null()}); err != nil {
		t.Errorf("NULL row: %v", err)
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInsert should panic on bad row")
		}
	}()
	NewTable(custSchema()).MustInsert(value.Int(1))
}

func TestDBCreateAndLookup(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(1))
	got, ok := db.Table("CUSTOMER")
	if !ok || got != tb {
		t.Error("Table lookup")
	}
	if _, ok := db.Table("ghost"); ok {
		t.Error("missing table lookup should fail")
	}
	if _, err := db.CreateTable(custSchema()); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	if n := db.TotalRows(); n != 1 {
		t.Errorf("TotalRows = %d", n)
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "customer" {
		t.Errorf("TableNames = %v", names)
	}
}

// An update on either side of a clone is invisible to the other side,
// on every row: the clone's block holds copies, not the source's rows.
func TestDBClone(t *testing.T) {
	names := []string{"John", "Mary", "Ann"}
	for _, side := range []string{"source", "clone"} {
		db := NewDB()
		tb := db.MustCreateTable(custSchema())
		for i, n := range names {
			tb.MustInsert(value.Str(fmt.Sprintf("c%d", i)), value.Str(n), value.Float(float64(i)))
		}
		cp, err := db.Clone()
		if err != nil {
			t.Fatal(err)
		}
		ct, _ := cp.Table("customer")
		updated, other := tb, ct
		if side == "clone" {
			updated, other = ct, tb
		}
		for i := range names {
			if err := updated.UpdateColumn(i, "name", value.Str("Mutated")); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range names {
			if got := other.Row(i)[1].AsString(); got != n {
				t.Errorf("updating the %s: row %d of the other side reads %q, want %q", side, i, got, n)
			}
		}
	}
}

// Appending to a cloned row copies it: the row is capped at its own
// length, so the append cannot write into the next row of the block.
func TestCloneRowAppendLeavesNextRow(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(1))
	tb.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(2))
	cp, err := db.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := cp.Table("customer")
	_ = append(ct.Row(0), value.Str("extra"))
	if !reflect.DeepEqual(ct.Rows(), tb.Rows()) {
		t.Errorf("after an append to cloned row 0, the clone's rows are %v, want %v", ct.Rows(), tb.Rows())
	}
}

// A clone is built without the source's fault injector (DESIGN.md §13
// clones the faulted tenant first and injects after): its scans and
// inserts are not faulted.
func TestCloneCarriesNoInjector(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(1))
	db.SetInjector(failAllButClone{})
	if tb.ScanFault() == nil || tb.Insert([]value.Value{value.Str("c2"), value.Str("Mary"), value.Float(2)}) == nil {
		t.Fatal("the source's injector does not fault its scans and inserts")
	}
	cp, err := db.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Injector() != nil {
		t.Errorf("clone has injector %v", cp.Injector())
	}
	ct, _ := cp.Table("customer")
	if err := ct.ScanFault(); err != nil {
		t.Errorf("clone's scan faulted: %v", err)
	}
	if err := ct.Insert([]value.Value{value.Str("c2"), value.Str("Mary"), value.Float(2)}); err != nil {
		t.Errorf("clone's insert faulted: %v", err)
	}
	if _, err := cp.CreateTable(schema.MustRelation("orders", schema.Column{Name: "id", Type: value.KindInt})); err != nil {
		t.Errorf("clone's create-table faulted: %v", err)
	}
}

// failAllButClone faults every instrumented operation except cloning.
type failAllButClone struct{}

func (failAllButClone) Fail(_ string, op Op) error {
	if op == OpClone {
		return nil
	}
	return errInjected
}

// Clone allocates per table, not per row: the same count at 100 and at
// 10,000 rows in each of two tables.
func TestCloneAllocatesPerTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(rows int) float64 {
		db := NewDB()
		for _, name := range []string{"customer", "supplier"} {
			tb := db.MustCreateTable(schema.MustRelation(name, custSchema().Columns...))
			for i := 0; i < rows; i++ {
				tb.MustInsert(value.Str("c"), value.Str("John"), value.Float(float64(i)))
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := db.Clone(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	t.Logf("Clone allocates %.0f times at 100 rows per table, %.0f at 10,000", small, large)
	if small != large {
		t.Errorf("Clone allocates %.0f times at 100 rows per table and %.0f at 10,000; want the same", small, large)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	tb.MustInsert(value.Str("c2"), value.Null(), value.Float(27000))

	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back := NewTable(custSchema())
	if err := back.ReadCSV(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip Len = %d", back.Len())
	}
	if !back.Row(1)[1].IsNull() {
		t.Error("NULL should round-trip through empty CSV field")
	}
	if back.Row(0)[2].AsFloat() != 20000 {
		t.Error("float should round-trip")
	}
}

func TestCSVColumnReordering(t *testing.T) {
	csvText := "balance,custid,name\n5,c1,John\n"
	tb := NewTable(custSchema())
	if err := tb.ReadCSV(strings.NewReader(csvText)); err != nil {
		t.Fatal(err)
	}
	if tb.Row(0)[0].AsString() != "c1" || tb.Row(0)[2].AsFloat() != 5 {
		t.Error("columns should map by header name, not position")
	}
}

func TestCSVMissingColumn(t *testing.T) {
	tb := NewTable(custSchema())
	err := tb.ReadCSV(strings.NewReader("custid,name\nc1,John\n"))
	if err == nil || !strings.Contains(err.Error(), "balance") {
		t.Errorf("missing column should be reported, got %v", err)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cust.csv")
	tb := NewTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(1))
	if err := tb.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back := NewTable(custSchema())
	if err := back.LoadCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Error("file round-trip")
	}
	if err := back.LoadCSVFile(filepath.Join(dir, "ghost.csv")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestTableVersionCountsMutations(t *testing.T) {
	tb := NewTable(custSchema())
	if tb.Version() != 0 {
		t.Fatalf("fresh table version = %d, want 0", tb.Version())
	}
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	tb.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(27000))
	if tb.Version() != 2 {
		t.Fatalf("version after 2 inserts = %d, want 2", tb.Version())
	}
	v := tb.Version()
	if err := tb.UpdateColumn(0, "balance", value.Float(1)); err != nil {
		t.Fatal(err)
	}
	if tb.Version() != v+1 {
		t.Fatalf("UpdateColumn should bump version: %d -> %d", v, tb.Version())
	}
	// Failed mutations leave the version alone.
	v = tb.Version()
	if err := tb.Insert([]value.Value{value.Str("short")}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := tb.UpdateColumn(0, "nosuch", value.Int(1)); err == nil {
		t.Fatal("unknown column should fail")
	}
	if tb.Version() != v {
		t.Fatalf("failed mutations must not bump version: %d -> %d", v, tb.Version())
	}
}

func TestCloneCarriesVersion(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	tb.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(27000))
	cp, err := db.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := cp.Table("customer")
	if ct.Version() != tb.Version() {
		t.Fatalf("clone version = %d, want source's %d", ct.Version(), tb.Version())
	}
	// Diverging after the clone is independent.
	ct.MustInsert(value.Str("c3"), value.Str("Ann"), value.Float(1))
	if ct.Version() != tb.Version()+1 || tb.Version() != 2 {
		t.Fatalf("clone mutations must not touch the source: clone=%d source=%d", ct.Version(), tb.Version())
	}
}

// SetRow replaces a row reference or appends one, bumps the version on success only, and consults the injector as an
// insert.
func TestSetRow(t *testing.T) {
	src := NewTable(custSchema())
	src.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	src.MustInsert(value.Str("c1"), value.Str("Jon"), value.Float(30000))
	src.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(27000))

	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	v := tb.Version()
	for i, from := range []int{0, 2} { // append
		if err := tb.SetRow(i, src.Row(from)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.SetRow(0, src.Row(1)); err != nil { // replace
		t.Fatal(err)
	}
	if tb.Len() != 2 || tb.Row(0)[1].AsString() != "Jon" || tb.Row(1)[1].AsString() != "Mary" {
		t.Fatalf("rows after SetRow: %v", tb.Rows())
	}
	if &tb.Row(0)[0] != &src.Row(1)[0] {
		t.Error("SetRow should share the row, not copy it")
	}
	if tb.Version() != v+3 {
		t.Errorf("version moved by %d over 3 SetRows, want 3", tb.Version()-v)
	}

	v = tb.Version()
	if err := tb.SetRow(3, src.Row(0)); err == nil {
		t.Error("SetRow past the end should fail")
	}
	if err := tb.SetRow(0, src.Row(0)[:2]); err == nil {
		t.Error("SetRow with the wrong arity should fail")
	}
	db.SetInjector(failInserts{})
	v++ // SetInjector bumps every table
	if err := tb.SetRow(0, src.Row(0)); err == nil || !strings.Contains(err.Error(), "inserting into customer") {
		t.Errorf("SetRow under an insert fault: %v", err)
	}
	if tb.Version() != v || tb.Row(0)[1].AsString() != "Jon" {
		t.Errorf("failed SetRows changed the table: version %d -> %d, row %v", v, tb.Version(), tb.Row(0))
	}
}

type failInserts struct{}

func (failInserts) Fail(_ string, op Op) error {
	if op == OpInsert {
		return errInjected
	}
	return nil
}

var errInjected = errors.New("injected")

// Attach shares a table between two databases by reference.
func TestAttachSharesTheTable(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
	other := NewDB()
	if err := other.Attach(tb); err != nil {
		t.Fatal(err)
	}
	got, ok := other.Table("CUSTOMER")
	if !ok || got != tb {
		t.Fatalf("attached table = %p, want %p", got, tb)
	}
	if names := other.TableNames(); len(names) != 1 || names[0] != "customer" {
		t.Errorf("catalog after Attach: %v", names)
	}
	if err := other.Attach(tb); err == nil {
		t.Error("attaching the same name twice should fail")
	}
}

// Every exported method of *Table is either a reader, which leaves the
// version alone, or a mutator, which moves it by exactly one when it
// succeeds and not at all when it fails: the result cache trusts an
// unchanged version to mean unchanged rows (DESIGN.md §11). A new
// method fails this test until it is classified here.
func TestTableMethodsReadOrBumpOnce(t *testing.T) {
	dir := t.TempDir()
	oneRow := "custid,name,balance\nc9,Zed,1\n"
	csvPath := filepath.Join(dir, "one.csv")
	if err := os.WriteFile(csvPath, []byte(oneRow), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func() []value.Value { return []value.Value{value.Str("c9"), value.Str("Zed"), value.Float(1)} }

	readers := map[string]func(*Table){
		"Len":         func(tb *Table) { tb.Len() },
		"Version":     func(tb *Table) { tb.Version() },
		"Row":         func(tb *Table) { tb.Row(0) },
		"Rows":        func(tb *Table) { tb.Rows() },
		"ScanFault":   func(tb *Table) { _ = tb.ScanFault() },
		"WriteCSV":    func(tb *Table) { _ = tb.WriteCSV(io.Discard) },
		"SaveCSVFile": func(tb *Table) { _ = tb.SaveCSVFile(filepath.Join(dir, "out.csv")) },
	}
	// ok succeeds once; fail fails before changing anything, with an
	// error matching want when want is set.
	mutators := map[string]struct {
		ok, fail func(*Table) error
		want     error
	}{
		"Insert": {
			ok:   func(tb *Table) error { return tb.Insert(row()) },
			fail: func(tb *Table) error { return tb.Insert(row()[:2]) },
		},
		"MustInsert": {
			ok: func(tb *Table) error { tb.MustInsert(row()...); return nil },
			fail: func(tb *Table) (err error) {
				defer func() {
					if recover() != nil {
						err = errors.New("panicked")
					}
				}()
				tb.MustInsert(value.Int(1))
				return nil
			},
		},
		"SetRow": {
			ok:   func(tb *Table) error { return tb.SetRow(0, tb.Row(1)) },
			fail: func(tb *Table) error { return tb.SetRow(tb.Len()+1, tb.Row(0)) },
			want: ErrNoRow,
		},
		"UpdateColumn": {
			ok:   func(tb *Table) error { return tb.UpdateColumn(1, "name", value.Str("Zed")) },
			fail: func(tb *Table) error { return tb.UpdateColumn(tb.Len(), "name", value.Str("Zed")) },
			want: ErrNoRow,
		},
		"ReadCSV": {
			ok:   func(tb *Table) error { return tb.ReadCSV(strings.NewReader(oneRow)) },
			fail: func(tb *Table) error { return tb.ReadCSV(strings.NewReader("custid,name\nc9,Zed\n")) },
		},
		"LoadCSVFile": {
			ok:   func(tb *Table) error { return tb.LoadCSVFile(csvPath) },
			fail: func(tb *Table) error { return tb.LoadCSVFile(filepath.Join(dir, "ghost.csv")) },
		},
	}

	typ := reflect.TypeOf(&Table{})
	if n := len(readers) + len(mutators); typ.NumMethod() != n {
		t.Errorf("*Table has %d exported methods, %d are classified", typ.NumMethod(), n)
	}
	for i := range typ.NumMethod() {
		name := typ.Method(i).Name
		tb := NewTable(custSchema())
		tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(20000))
		tb.MustInsert(value.Str("c2"), value.Str("Mary"), value.Float(27000))
		v := tb.Version()
		if read, ok := readers[name]; ok {
			read(tb)
			if tb.Version() != v {
				t.Errorf("reader %s moved the version by %d", name, tb.Version()-v)
			}
			continue
		}
		m, ok := mutators[name]
		if !ok {
			t.Errorf("(*Table).%s is neither a reader nor a mutator: classify it in this test", name)
			continue
		}
		if err := m.ok(tb); err != nil || tb.Version() != v+1 {
			t.Errorf("%s succeeding: err %v, version moved by %d, want 1", name, err, tb.Version()-v)
		}
		v, rows := tb.Version(), tb.Len()
		err := m.fail(tb)
		if err == nil || (m.want != nil && !errors.Is(err, m.want)) || tb.Version() != v || tb.Len() != rows {
			t.Errorf("%s failing: err %v (want %v), version moved by %d, rows %d -> %d", name, err, m.want, tb.Version()-v, rows, tb.Len())
		}
	}
}
