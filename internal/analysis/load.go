package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked local package: the unit the analyzers run on.
type Package struct {
	Path  string // import path ("repro/internal/zero", or "zero" under a fixture root)
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of one source root using only
// the standard library: module-local import paths resolve to directories
// under RootDir, everything else falls through to the source importer (which
// type-checks the standard library from GOROOT source). This is the
// golang.org/x/tools/go/packages role, reimplemented on go/parser + go/types
// because this repo is dependency-free by policy (see README "Static
// analysis").
type Loader struct {
	Fset *token.FileSet
	// RootDir is the module root (the directory holding go.mod) or an
	// analysistest fixture root (testdata/src).
	RootDir string
	// ModulePath is the module's import-path prefix; empty for fixture
	// roots, where import "mem" resolves to RootDir/mem.
	ModulePath string
	// IncludeTests parses _test.go files too (off for the lint tool: hot
	// paths live in non-test code and tests are free to allocate).
	IncludeTests bool

	std      types.Importer
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader returns a loader rooted at rootDir. modulePath may be empty for
// fixture roots.
func NewLoader(rootDir, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		RootDir:    rootDir,
		ModulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		checking:   make(map[string]bool),
	}
}

// FindModuleRoot walks upward from dir to the directory containing go.mod
// and returns that directory plus the module path declared in it.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// local reports whether path is a package of this source root, and the
// directory it maps to.
func (l *Loader) local(path string) (dir string, ok bool) {
	if l.ModulePath == "" {
		d := filepath.Join(l.RootDir, filepath.FromSlash(path))
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, true
		}
		return "", false
	}
	if path == l.ModulePath {
		return l.RootDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.RootDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer over the local root + standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.local(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir (memoized).
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour build constraints as the compiler would for the host, so
		// a file gated to other GOARCHes (or to the race tag) is not
		// type-checked alongside its counterpart.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Load resolves patterns ("./...", "./internal/zero", "internal/comm") to
// local packages, type-checking them and their local dependencies. The
// returned slice holds only the packages matched by the patterns (the ones
// diagnostics are reported for), sorted by path.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	seen := make(map[string]bool)
	var out []*Package
	add := func(dir string) error {
		path, err := l.dirToPath(dir)
		if err != nil {
			return err
		}
		if seen[path] {
			return nil
		}
		seen[path] = true
		if !hasGoFiles(dir, l.IncludeTests) {
			return nil
		}
		p, err := l.load(path, dir)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			rec, pat = true, "."
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			if d, ok := l.local(pat); ok && !strings.HasPrefix(pat, ".") {
				dir = d // import-path pattern
			} else {
				dir = filepath.Join(l.RootDir, filepath.FromSlash(pat))
			}
		}
		if !rec {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := d.Name()
			if p != dir && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				base == "testdata" || base == "vendor") {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// All returns every package loaded so far (targets and local dependencies).
func (l *Loader) All() map[string]*Package { return l.pkgs }

// dirToPath maps a directory under RootDir back to its import path.
func (l *Loader) dirToPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.RootDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside the source root %s", dir, l.RootDir)
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if l.ModulePath == "" {
			return "", fmt.Errorf("analysis: fixture root itself is not a package")
		}
		return l.ModulePath, nil
	}
	if l.ModulePath == "" {
		return rel, nil
	}
	return l.ModulePath + "/" + rel, nil
}

// hasGoFiles reports whether dir directly contains analyzable Go files.
func hasGoFiles(dir string, includeTests bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true
	}
	return false
}
