package storage

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"conquer/internal/schema"
	"conquer/internal/value"
)

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

func TestDBClone(t *testing.T) {
	db := NewDB()
	tb := db.MustCreateTable(custSchema())
	tb.MustInsert(value.Str("c1"), value.Str("John"), value.Float(1))
	cp, err := db.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := cp.Table("customer")
	if err := ct.UpdateColumn(0, "name", value.Str("Mutated")); err != nil {
		t.Fatal(err)
	}
	if tb.Row(0)[1].AsString() != "John" {
		t.Error("Clone must not share row storage")
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
