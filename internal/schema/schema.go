// Package schema describes relations, columns and the catalog shared by the
// storage layer, the planner and the dirty-database machinery.
//
// A relation may carry two pieces of dirty-database metadata on top of its
// ordinary columns:
//
//   - an identifier column (the cluster identifier produced by a tuple
//     matcher, §2.1 of the paper), and
//   - a probability column (prob, the likelihood of the tuple being in the
//     clean database).
//
// Clean relations simply leave both unset.
package schema

import (
	"fmt"
	"strings"

	"conquer/internal/value"
)

// Column is a named, typed attribute of a relation.
type Column struct {
	Name string
	Type value.Kind
}

// ForeignKey records that column Column of the owning relation references
// column RefColumn of relation RefTable (the pre-matching original key).
// The dirty-database layer uses these edges for identifier propagation,
// and the rewriting layer uses them to classify joins.
type ForeignKey struct {
	Column    string // referencing column in the owning relation
	RefTable  string // referenced relation name
	RefColumn string // referenced column (original key) in RefTable
}

// Relation is the schema of one table.
type Relation struct {
	Name    string
	Columns []Column

	// Identifier names the cluster-identifier column ("id" by convention),
	// empty for clean relations.
	Identifier string
	// Prob names the tuple-probability column ("prob" by convention),
	// empty for clean relations.
	Prob string
	// ForeignKeys lists outgoing foreign-key edges.
	ForeignKeys []ForeignKey
}

// NewRelation builds a relation schema and validates column-name uniqueness.
func NewRelation(name string, cols ...Column) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation needs a name")
	}
	r := &Relation{Name: strings.ToLower(name)}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		cn := strings.ToLower(c.Name)
		if cn == "" {
			return nil, fmt.Errorf("schema: relation %s has an unnamed column", name)
		}
		if seen[cn] {
			return nil, fmt.Errorf("schema: relation %s has duplicate column %q", name, cn)
		}
		seen[cn] = true
		r.Columns = append(r.Columns, Column{Name: cn, Type: c.Type})
	}
	return r, nil
}

// MustRelation is NewRelation that panics on error; for static schemas.
func MustRelation(name string, cols ...Column) *Relation {
	r, err := NewRelation(name, cols...)
	if err != nil {
		panic(err) //lint:allow nopanic -- fixture constructor, documented to panic
	}
	return r
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the relation has a column with the given name.
func (r *Relation) HasColumn(name string) bool { return r.ColumnIndex(name) >= 0 }

// IdentifierIndex returns the position of the identifier column, or -1 if
// the relation is clean.
func (r *Relation) IdentifierIndex() int {
	if r.Identifier == "" {
		return -1
	}
	return r.ColumnIndex(r.Identifier)
}

// ProbIndex returns the position of the probability column, or -1 if the
// relation is clean.
func (r *Relation) ProbIndex() int {
	if r.Prob == "" {
		return -1
	}
	return r.ColumnIndex(r.Prob)
}

// IsDirty reports whether the relation carries dirty-database metadata.
func (r *Relation) IsDirty() bool { return r.Identifier != "" && r.Prob != "" }

// SetDirty marks the relation as dirty with the given identifier and
// probability columns, adding them if absent. The identifier column is
// typed VARCHAR and prob FLOAT when added.
func (r *Relation) SetDirty(identifier, prob string) error {
	identifier = strings.ToLower(identifier)
	prob = strings.ToLower(prob)
	if identifier == "" || prob == "" {
		return fmt.Errorf("schema: SetDirty needs both column names")
	}
	if !r.HasColumn(identifier) {
		r.Columns = append(r.Columns, Column{Name: identifier, Type: value.KindString})
	}
	if !r.HasColumn(prob) {
		r.Columns = append(r.Columns, Column{Name: prob, Type: value.KindFloat})
	}
	if r.Columns[r.ColumnIndex(prob)].Type != value.KindFloat {
		return fmt.Errorf("schema: prob column %s.%s must be FLOAT", r.Name, prob)
	}
	r.Identifier = identifier
	r.Prob = prob
	return nil
}

// AddForeignKey registers a foreign key edge from the given column to
// refColumn of refTable.
func (r *Relation) AddForeignKey(column, refTable, refColumn string) error {
	column = strings.ToLower(column)
	if !r.HasColumn(column) {
		return fmt.Errorf("schema: %s has no column %q for foreign key", r.Name, column)
	}
	r.ForeignKeys = append(r.ForeignKeys, ForeignKey{
		Column:    column,
		RefTable:  strings.ToLower(refTable),
		RefColumn: strings.ToLower(refColumn),
	})
	return nil
}

// Clone returns a deep copy of the relation schema.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:       r.Name,
		Identifier: r.Identifier,
		Prob:       r.Prob,
	}
	c.Columns = append([]Column(nil), r.Columns...)
	c.ForeignKeys = append([]ForeignKey(nil), r.ForeignKeys...)
	return c
}

// String renders the schema in a compact CREATE-TABLE-like form.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('(')
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	if r.IsDirty() {
		fmt.Fprintf(&b, " [identifier=%s prob=%s]", r.Identifier, r.Prob)
	}
	return b.String()
}

// Catalog is a collection of relation schemas looked up by name.
type Catalog struct {
	relations map[string]*Relation
	order     []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{relations: make(map[string]*Relation)}
}

// Add registers a relation; it is an error to register the same name twice.
func (c *Catalog) Add(r *Relation) error {
	if _, dup := c.relations[r.Name]; dup {
		return fmt.Errorf("schema: relation %q already in catalog", r.Name)
	}
	c.relations[r.Name] = r
	c.order = append(c.order, r.Name)
	return nil
}

// Relation looks up a relation schema by (case-insensitive) name.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	r, ok := c.relations[strings.ToLower(name)]
	return r, ok
}

// Names returns the relation names in registration order.
func (c *Catalog) Names() []string { return append([]string(nil), c.order...) }
