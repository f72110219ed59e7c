package tpch

import (
	"fmt"
	"path/filepath"

	"conquer/internal/storage"
)

// LoadCSV builds a store of the dirty TPC-H catalog from one <table>.csv
// file per relation in dir, as cmd/datagen writes them. An error names the
// file that could not be loaded.
func LoadCSV(dir string) (*storage.DB, error) {
	store := storage.NewDB()
	cat := Catalog()
	for _, name := range Tables {
		rel, _ := cat.Relation(name)
		tb, err := store.CreateTable(rel)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".csv")
		if err := tb.LoadCSVFile(path); err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return store, nil
}
