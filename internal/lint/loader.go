package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module. Test files
// are never loaded: no rule applies to them.
type Package struct {
	// ImportPath is the full import path (module path + relative dir).
	ImportPath string
	Fset       *token.FileSet
	// Syntax holds the ASTs of the non-test files, in the order they were
	// type-checked.
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Module is the loaded view of the repository: every package, parsed and
// type-checked with only the standard library's go/* toolchain packages.
type Module struct {
	// Path is the module path from go.mod.
	Path     string
	Packages []*Package
}

// sharedFset and stdlib are process-wide: the source importer
// type-checks each standard-library package once and caches it, keyed to
// the file set it was built with, so every LoadModule call after the
// first resolves its stdlib imports from that cache instead of
// re-checking them from source. The importer is not safe for concurrent
// use; stdlibMu serializes it.
var (
	sharedFset = token.NewFileSet()
	stdlibMu   sync.Mutex
	stdlib     = importer.ForCompiler(sharedFset, "source", nil)
)

// LoadModule parses and type-checks every package under root (the
// directory containing go.mod). Standard-library imports are resolved by
// the shared stdlib source importer; module-internal imports are resolved
// against the packages being loaded, in dependency order.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := sharedFset
	pkgs := make(map[string]*Package) // import path -> parsed package
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs[pkg.ImportPath] = pkg
		}
	}

	order, err := topoSort(pkgs, modPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		module: modPath,
		pkgs:   make(map[string]*types.Package),
	}
	for _, pkg := range order {
		if err := typeCheck(fset, imp, pkg); err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
		}
		imp.pkgs[pkg.ImportPath] = pkg.Types
	}

	return &Module{Path: modPath, Packages: order}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs lists every directory under root, skipping VCS metadata,
// testdata, and hidden directories. parseDir drops the ones without Go
// files.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}
	return dirs, nil
}

// parseDir parses the non-test .go files in dir into a Package (nil if
// there are none).
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}

	pkg := &Package{ImportPath: importPath, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Syntax = append(pkg.Syntax, f)
	}
	if len(pkg.Syntax) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// fileImports returns the import paths of a package's primary files.
func fileImports(pkg *Package) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Syntax {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	return out
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(pkgs map[string]*Package, modPath string) ([]*Package, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		pkg, ok := pkgs[path]
		if !ok {
			return nil // stdlib or external: handled by the importer
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = visiting
		for _, imp := range fileImports(pkg) {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				if err := visit(imp, append(stack, path)); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from already checked
// packages and everything else from the shared stdlib source importer.
type moduleImporter struct {
	module string
	pkgs   map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if path == m.module || strings.HasPrefix(path, m.module+"/") {
		return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
	}
	stdlibMu.Lock()
	defer stdlibMu.Unlock()
	return stdlib.Import(path)
}

// typeCheck runs go/types over a package's primary files.
func typeCheck(fset *token.FileSet, imp types.Importer, pkg *Package) error {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Syntax, info)
	if err != nil {
		return err
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
