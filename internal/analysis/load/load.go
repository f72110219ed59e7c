// Package load discovers, parses and type-checks Go packages for the
// analysis framework without importing golang.org/x/tools.
//
// Packages inside the module are resolved by mapping import paths onto
// directories under Config.Root; everything else (the standard library)
// is type-checked from GOROOT source via go/importer's "source" mode, so
// no compiled export data or network access is required. Local packages
// are checked in dependency order and shared across the load, so a
// package graph is checked exactly once per Load call.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("" is never used; the root package gets ModulePath)
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Config controls a Load.
type Config struct {
	// Root is the directory that import paths are resolved against.
	Root string
	// ModulePath is the import-path prefix corresponding to Root. When
	// empty, import paths are plain Root-relative paths (the layout used
	// by analyzer testdata trees).
	ModulePath string
	// IncludeTests adds in-package _test.go files to each package.
	IncludeTests bool
}

// MainModule returns a Config for the module containing dir, reading the
// module path from its go.mod.
func MainModule(dir string) (Config, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return Config{}, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return Config{Root: root, ModulePath: strings.TrimSpace(rest)}, nil
				}
			}
			return Config{}, fmt.Errorf("load: no module line in %s/go.mod", root)
		}
		parent := filepath.Dir(root)
		if parent == root {
			return Config{}, fmt.Errorf("load: no go.mod found above %s", dir)
		}
		root = parent
	}
}

// loader carries the state of one Load call.
type loader struct {
	cfg  Config
	fset *token.FileSet
	std  types.Importer      // GOROOT source importer
	pkgs map[string]*Package // import path -> loaded package
	busy map[string]bool     // cycle detection
}

// Load parses and type-checks the packages matched by patterns. A pattern
// is a Root-relative directory ("internal/storage", "." for the root
// package) or a recursive form ending in "/..." ("./...", "internal/...").
// The returned packages are sorted by import path; their dependencies are
// loaded and checked too but only matches are returned.
func (cfg Config) Load(patterns ...string) (*token.FileSet, []*Package, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, nil, err
	}
	cfg.Root = root
	dirs, err := cfg.expand(patterns)
	if err != nil {
		return nil, nil, err
	}
	ld := &loader{
		cfg:  cfg,
		fset: token.NewFileSet(),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	var out []*Package
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return ld.fset, out, nil
}

// expand resolves patterns to absolute candidate directories.
func (cfg Config) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(cfg.Root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				// A directory with its own go.mod is another module; like
				// the go tool, "..." does not descend into it.
				if p != cfg.Root {
					if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
						return filepath.SkipDir
					}
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(cfg.Root, filepath.FromSlash(pat)))
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathOf maps an absolute directory to its import path.
func (ld *loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(ld.cfg.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside root %s", dir, ld.cfg.Root)
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if ld.cfg.ModulePath == "" {
			return "", fmt.Errorf("load: the root directory needs a ModulePath to be importable")
		}
		return ld.cfg.ModulePath, nil
	}
	if ld.cfg.ModulePath == "" {
		return rel, nil
	}
	return path.Join(ld.cfg.ModulePath, rel), nil
}

// dirOf maps an import path to a local directory, or "" when the path is
// not inside the module.
func (ld *loader) dirOf(importPath string) string {
	if ld.cfg.ModulePath != "" {
		if importPath == ld.cfg.ModulePath {
			return ld.cfg.Root
		}
		rest, ok := strings.CutPrefix(importPath, ld.cfg.ModulePath+"/")
		if !ok {
			return ""
		}
		return filepath.Join(ld.cfg.Root, filepath.FromSlash(rest))
	}
	// Rootless (testdata) mode: any import path that names an existing
	// directory under Root is local; everything else goes to GOROOT.
	dir := filepath.Join(ld.cfg.Root, filepath.FromSlash(importPath))
	if hasGoFiles(dir) {
		return dir
	}
	return ""
}

// loadDir loads the package in dir, returning nil when the directory
// holds no buildable non-test Go files.
func (ld *loader) loadDir(dir string) (*Package, error) {
	ip, err := ld.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	return ld.load(ip, dir)
}

func (ld *loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := ld.pkgs[importPath]; ok {
		return pkg, nil
	}
	if ld.busy[importPath] {
		return nil, fmt.Errorf("load: import cycle through %s", importPath)
	}
	ld.busy[importPath] = true
	defer delete(ld.busy, importPath)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			ld.pkgs[importPath] = nil
			return nil, nil
		}
		return nil, fmt.Errorf("load: %s: %w", importPath, err)
	}
	names := bp.GoFiles
	if ld.cfg.IncludeTests {
		names = append(append([]string(nil), names...), bp.TestGoFiles...)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}

	// Type-check local dependencies first so the importer below finds them.
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if depDir := ld.dirOf(p); depDir != "" {
				if _, err := ld.load(p, depDir); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*ldImporter)(ld)}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	ld.pkgs[importPath] = pkg
	return pkg, nil
}

// ldImporter resolves imports during type checking: local packages from
// the loader's cache, everything else from GOROOT source.
type ldImporter loader

func (im *ldImporter) Import(p string) (*types.Package, error) {
	ld := (*loader)(im)
	if dir := ld.dirOf(p); dir != "" {
		pkg, err := ld.load(p, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("load: no Go files in local import %s", p)
		}
		return pkg.Types, nil
	}
	return ld.std.Import(p)
}
