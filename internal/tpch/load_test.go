package tpch_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conquer/internal/tpch"
	"conquer/internal/uisgen"
	"conquer/internal/value"
)

// Generated tables saved as CSV load back row for row, in order.
func TestLoadCSVRoundTrip(t *testing.T) {
	d, err := uisgen.Generate(uisgen.Config{
		SF: 0.01, IF: 2, Scale: 0.01, Seed: 3, Propagated: true, UniformProbs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range tpch.Tables {
		tb, _ := d.Store.Table(name)
		if err := tb.SaveCSVFile(filepath.Join(dir, name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := tpch.LoadCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tpch.Tables {
		want, _ := d.Store.Table(name)
		got, ok := loaded.Table(name)
		if !ok {
			t.Fatalf("%s not loaded", name)
		}
		if got.Len() != want.Len() || want.Len() == 0 {
			t.Fatalf("%s: loaded %d rows, generated %d", name, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !value.RowsIdentical(got.Row(i), want.Row(i)) {
				t.Fatalf("%s row %d: loaded %v, generated %v", name, i, got.Row(i), want.Row(i))
			}
		}
	}
}

// A missing file fails the load, and the error names its path.
func TestLoadCSVNamesMissingFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "region.csv"), []byte("r_regionkey,r_name,r_rowkey,prob\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := tpch.LoadCSV(dir)
	if want := filepath.Join(dir, "nation.csv"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want one naming %s", err, want)
	}
}
