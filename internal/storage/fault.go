package storage

// Fault-injection seam. Production code never installs an injector, so
// the cost is a nil check on the instrumented operations; test harnesses
// (internal/faultinject) install deterministic schedules to prove that
// storage failures propagate %w-wrapped through every layer above.

// Op names one instrumented storage operation for fault injection.
type Op string

// Instrumented operations.
const (
	OpInsert      Op = "insert"       // Table.Insert, before the row is appended
	OpScan        Op = "scan"         // per row handed to an exec.Scan
	OpClone       Op = "clone"        // DB.Clone, once per table
	OpCreateTable Op = "create-table" // DB.CreateTable, before registration
)

// Injector decides whether an instrumented operation should fail. A
// non-nil error aborts the operation before it mutates anything; the
// error is wrapped with %w by the call site so it stays errors.Is/As
// reachable through the layers above.
type Injector interface {
	Fail(table string, op Op) error
}

// SetInjector installs inj on the database and all its current tables
// (nil clears). Tables created afterwards inherit the injector. The
// change bumps every table's version: an injector alters what a scan
// observably returns, so cached results and plans built before it must
// revalidate.
func (db *DB) SetInjector(inj Injector) {
	db.inj = inj
	for _, t := range db.tables {
		t.inj = inj
		t.bump()
	}
}

// Injector returns the installed injector, if any; dirty.Materialize
// uses it to propagate fault schedules onto candidate databases.
func (db *DB) Injector() Injector { return db.inj }

// ScanFault reports an injected fault for reading one row of the table;
// exec.Scan consults it per row. Nil without an injector.
func (t *Table) ScanFault() error {
	if t.inj == nil {
		return nil
	}
	return t.inj.Fail(t.Schema.Name, OpScan)
}

// fail is the internal check instrumented operations run first.
func (t *Table) fail(op Op) error {
	if t.inj == nil {
		return nil
	}
	return t.inj.Fail(t.Schema.Name, op)
}
