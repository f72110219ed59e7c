package schema

import (
	"strings"
	"testing"

	"conquer/internal/value"
)

func TestNewRelation(t *testing.T) {
	r, err := NewRelation("Customer",
		Column{Name: "CustID", Type: value.KindString},
		Column{Name: "Name", Type: value.KindString},
		Column{Name: "Balance", Type: value.KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "customer" {
		t.Errorf("name not lowercased: %q", r.Name)
	}
	if r.ColumnIndex("CUSTID") != 0 || r.ColumnIndex("balance") != 2 {
		t.Error("case-insensitive column lookup failed")
	}
	if r.ColumnIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	if !r.HasColumn("name") || r.HasColumn("nope") {
		t.Error("HasColumn")
	}
}

func TestNewRelationErrors(t *testing.T) {
	if _, err := NewRelation(""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewRelation("t", Column{Name: "a"}, Column{Name: "A"}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewRelation("t", Column{Name: ""}); err == nil {
		t.Error("unnamed column should fail")
	}
}

func TestMustRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRelation should panic on invalid schema")
		}
	}()
	MustRelation("t", Column{Name: "a"}, Column{Name: "a"})
}

func TestSetDirty(t *testing.T) {
	r := MustRelation("customer",
		Column{Name: "custid", Type: value.KindString},
		Column{Name: "name", Type: value.KindString},
	)
	if r.IsDirty() {
		t.Error("fresh relation should be clean")
	}
	if err := r.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if !r.IsDirty() {
		t.Error("should be dirty after SetDirty")
	}
	if r.IdentifierIndex() != 2 || r.ProbIndex() != 3 {
		t.Errorf("added columns at wrong positions: id=%d prob=%d", r.IdentifierIndex(), r.ProbIndex())
	}
	if r.Columns[3].Type != value.KindFloat {
		t.Error("prob column should be FLOAT")
	}
}

func TestSetDirtyExistingColumns(t *testing.T) {
	r := MustRelation("t",
		Column{Name: "id", Type: value.KindString},
		Column{Name: "prob", Type: value.KindFloat},
	)
	if err := r.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 2 {
		t.Error("SetDirty must not duplicate existing columns")
	}
	// Wrong type for prob is rejected.
	r2 := MustRelation("t2", Column{Name: "prob", Type: value.KindString})
	if err := r2.SetDirty("id", "prob"); err == nil {
		t.Error("non-float prob column should be rejected")
	}
	r3 := MustRelation("t3")
	if err := r3.SetDirty("", "prob"); err == nil {
		t.Error("empty identifier should be rejected")
	}
}

func TestCleanRelationIndexes(t *testing.T) {
	r := MustRelation("t", Column{Name: "a", Type: value.KindInt})
	if r.IdentifierIndex() != -1 || r.ProbIndex() != -1 {
		t.Error("clean relation should report -1 for dirty metadata")
	}
}

func TestForeignKeys(t *testing.T) {
	r := MustRelation("orders",
		Column{Name: "orderid", Type: value.KindString},
		Column{Name: "custfk", Type: value.KindString},
	)
	if err := r.AddForeignKey("custfk", "Customer", "custid"); err != nil {
		t.Fatal(err)
	}
	want := ForeignKey{Column: "custfk", RefTable: "customer", RefColumn: "custid"}
	if len(r.ForeignKeys) != 1 || r.ForeignKeys[0] != want {
		t.Errorf("ForeignKeys = %v, want [%v]", r.ForeignKeys, want)
	}
	if err := r.AddForeignKey("missing", "customer", "custid"); err == nil {
		t.Error("fk on missing column should fail")
	}
}

func TestClone(t *testing.T) {
	r := MustRelation("t", Column{Name: "a", Type: value.KindInt})
	if err := r.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddForeignKey("a", "other", "b"); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	c.Columns[0].Name = "mutated"
	c.ForeignKeys[0].RefTable = "mutated"
	if r.Columns[0].Name != "a" || r.ForeignKeys[0].RefTable != "other" {
		t.Error("Clone must deep-copy columns and foreign keys")
	}
}

func TestRelationString(t *testing.T) {
	r := MustRelation("t", Column{Name: "a", Type: value.KindInt})
	s := r.String()
	if !strings.Contains(s, "t(a INTEGER)") {
		t.Errorf("String() = %q", s)
	}
	if err := r.SetDirty("id", "prob"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "identifier=id") {
		t.Errorf("dirty String() = %q", r.String())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	cust := MustRelation("customer", Column{Name: "custid", Type: value.KindString})
	ord := MustRelation("orders", Column{Name: "custfk", Type: value.KindString})
	if err := ord.AddForeignKey("custfk", "customer", "custid"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(cust); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ord); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(cust); err == nil {
		t.Error("duplicate Add should fail")
	}
	if r, ok := c.Relation("CUSTOMER"); !ok || r != cust {
		t.Error("case-insensitive catalog lookup")
	}
	if _, ok := c.Relation("nope"); ok {
		t.Error("missing relation lookup should fail")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "customer" || names[1] != "orders" {
		t.Errorf("Names() = %v", names)
	}
}
