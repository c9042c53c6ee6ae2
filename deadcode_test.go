package rlsched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllow lists the internal/ identifiers the dead-code gate keeps
// although only their own package's tests refer to them, each with its
// reason. Keep it short: anything else that nothing calls is deleted, or
// moved into the _test.go file of the package whose tests need it.
var deadAllow = map[string]string{
	"internal/energy.Eq5": "states the paper's Eq. 5 (energy of a busy interval); tests check the engine's integration against it",
	"internal/energy.Eq6": "states the paper's Eq. 6 (energy of an idle interval); tests check the engine's integration against it",
	"internal/energy.ECS": "states the paper's ECS sum over Eq. 5 and Eq. 6; tests check the platform's meter against it",
}

// TestNoDeadInternalCode is the dead-code gate. Every package-level func,
// type, var and const and every method declared in a non-test file under
// internal/ must be used:
//   - an exported one by a non-test file of this module or of perfbench
//     (which imports internal/), or by a test of another package;
//   - an unexported one by a non-test file;
//   - a method also counts as used when it makes its type satisfy an
//     interface declared in either module, or one of stdConventions.
func TestNoDeadInternalCode(t *testing.T) {
	if testing.Short() {
		t.Skip("the dead-code gate runs in the plain pass")
	}
	dead, stale, err := findDead(deadAllow, ".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	if len(deadAllow) > 10 {
		t.Errorf("deadAllow has %d entries; keep it at 10 or fewer", len(deadAllow))
	}
	for _, k := range stale {
		t.Errorf("deadAllow entry %s names nothing that the gate would report; delete the entry", k)
	}
	if len(dead) == 0 {
		return
	}
	var b strings.Builder
	lines := 0
	for _, d := range dead {
		fmt.Fprintf(&b, "\n  %s (%d lines, %s)", d.name, d.lines, d.pos)
		lines += d.lines
	}
	t.Errorf("%d internal/ identifiers (%d declaration lines) are used by nothing but their own package's tests; delete them, move them into a _test.go file, or add them to deadAllow with a reason:%s",
		len(dead), lines, b.String())
}

// TestDeadCodeGatePlanted runs the gate over a throwaway module with one
// planted defect and the cases that must not be reported.
func TestDeadCodeGatePlanted(t *testing.T) {
	if testing.Short() {
		t.Skip("the dead-code gate runs in the plain pass")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"main.go": `package main

import (
	"fmt"

	"planted/internal/a"
)

type runner interface{ Run() }

func main() {
	var r runner = a.Job{}
	r.Run()
	var err error = a.Fault{}
	fmt.Println(err, a.Live())
}
`,
		"internal/a/a.go": `package a

// Live is called from main.
func Live() int { return helper() }

func helper() int { return 1 }

// Dead is the planted defect: nothing calls it.
func Dead() int { return 2 }

// deadHelper is unexported and only its own package's test calls it.
func deadHelper() int { return 3 }

// ForTests is exported and only another package's test calls it.
func ForTests() int { return 4 }

// Kept is dead but allowlisted.
func Kept() int { return 5 }

// Job satisfies main's runner.
type Job struct{}

func (Job) Run() {}

// Stop is an unused method of a used type.
func (Job) Stop() {}

// Fault satisfies error.
type Fault struct{}

func (Fault) Error() string { return "fault" }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOwn(t *testing.T) {
	if Dead()+deadHelper()+Kept() == 0 {
		t.Fatal()
	}
}
`,
		"internal/b/b.go": "package b\n",
		"internal/b/b_test.go": `package b

import (
	"testing"

	"planted/internal/a"
)

func TestOther(t *testing.T) {
	if a.ForTests() == 0 {
		t.Fatal()
	}
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{"internal/a.Kept": "planted allowlist entry", "internal/a.Gone": "names nothing"}
	dead, stale, err := findDead(allow, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"internal/a.Dead", "internal/a.Job.Stop", "internal/a.deadHelper"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dead = %v, want %v", got, want)
	}
	if strings.Join(stale, " ") != "internal/a.Gone" {
		t.Errorf("stale allowlist entries = %v, want [internal/a.Gone]", stale)
	}
}

// stdConventions are the standard-library interfaces a method may exist
// to satisfy although no code in either module names them: the standard
// library calls it through the interface. error and the errors package's
// Unwrap convention are added in conventionIfaces.
var stdConventions = []struct{ path, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
	{"net/http", "Flusher"},
	{"net/http", "RoundTripper"},
	{"log/slog", "Handler"},
}

// deadIdent is one identifier the gate reports.
type deadIdent struct {
	name  string // import path below the module, then "." and the name
	pos   string // file:line of the declaration
	lines int    // declaration lines, doc comment included
}

// listedPkg holds the fields of `go list -json` the gate reads.
type listedPkg struct {
	ImportPath, ForTest, Dir, Export string
	GoFiles                          []string
	ImportMap                        map[string]string
	Standard                         bool
	Module                           *struct {
		Path string
		Main bool
	}
}

// checkUnit is one package as the compiler builds it for `go test`: a
// package with its in-package test files, or an external _test package.
type checkUnit struct {
	path  string // package path of the checked package
	owner string // the package whose tests these are, else path
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	imp   types.Importer
	avail map[string]bool // standard-library import paths with export data
}

// declRange is where a reported identifier is declared.
type declRange struct {
	pkg        string // import path of the declaring package
	file       string
	start, end int // byte offsets, doc comment included
	line, n    int // first line and line count
	exported   bool
}

// findDead type-checks every package of the modules in dirs (the first is
// the one whose internal/ tree is checked) and returns the identifiers of
// that tree that nothing uses, minus those in allow, plus the entries of
// allow that name nothing reportable.
func findDead(allow map[string]string, dirs ...string) (dead []deadIdent, stale []string, err error) {
	var units []*checkUnit
	mainMod := ""
	for _, dir := range dirs {
		us, mod, err := loadModule(dir)
		if err != nil {
			return nil, nil, err
		}
		if mainMod == "" {
			mainMod = mod
		}
		units = append(units, us...)
	}
	prefix := mainMod + "/internal/"

	decls := map[string]declRange{}
	for _, u := range units {
		if strings.HasPrefix(u.path, prefix) {
			collectDecls(u, decls)
		}
	}

	used := map[string]bool{}
	for _, u := range units {
		for id, obj := range u.info.Uses {
			k := objKey(obj)
			d, ok := decls[k]
			if !ok || used[k] {
				continue
			}
			p := u.fset.Position(id.Pos())
			if p.Filename == d.file && p.Offset >= d.start && p.Offset < d.end {
				continue // a declaration's reference to itself
			}
			switch {
			case !strings.HasSuffix(p.Filename, "_test.go"):
				used[k] = true
			case d.exported && u.owner != d.pkg:
				used[k] = true
			}
		}
	}
	for _, u := range units {
		markSatisfied(u, prefix, decls, used)
	}

	for k, d := range decls {
		if used[k] {
			continue
		}
		name := strings.TrimPrefix(k, mainMod+"/")
		if _, ok := allow[name]; ok {
			continue
		}
		dead = append(dead, deadIdent{name: name, pos: fmt.Sprintf("%s:%d", d.file, d.line), lines: d.n})
	}
	for name := range allow {
		k := mainMod + "/" + name
		if _, ok := decls[k]; !ok || used[k] {
			stale = append(stale, name)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	sort.Strings(stale)
	return dead, stale, nil
}

// loadModule lists the module in dir with `go list -deps -test -export`
// and type-checks its packages, resolving every import through the
// compiler's export data, so nothing is fetched and nothing is checked
// twice from source.
func loadModule(dir string) ([]*checkUnit, string, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "-test", "-export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, "", fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	exports := map[string]string{}
	avail := map[string]bool{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
		avail[p.ImportPath] = p.Standard && p.Export != ""
	}

	var units []*checkUnit
	mod := ""
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		mod = p.Module.Path
		path, owner := strings.Fields(p.ImportPath)[0], p.ImportPath
		if p.ForTest != "" {
			// Keep the package under test and its external test; the
			// other variants recompile unchanged sources.
			if path != p.ForTest && path != p.ForTest+"_test" {
				continue
			}
			owner = p.ForTest
		} else if _, ok := exports[path+" ["+path+".test]"]; ok {
			continue
		}
		u, err := checkPackage(p, path, owner, exports, avail)
		if err != nil {
			return nil, "", err
		}
		units = append(units, u)
	}
	return units, mod, nil
}

func checkPackage(p listedPkg, path, owner string, exports map[string]string, avail map[string]bool) (*checkUnit, error) {
	u := &checkUnit{path: path, owner: owner, fset: token.NewFileSet(), avail: avail}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
	}
	u.imp = importer.ForCompiler(u.fset, "gc", func(imp string) (io.ReadCloser, error) {
		if m, ok := p.ImportMap[imp]; ok {
			imp = m
		}
		if exports[imp] == "" {
			return nil, fmt.Errorf("no export data for %s", imp)
		}
		return os.Open(exports[imp])
	})
	u.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: u.imp}
	if _, err := conf.Check(path, u.fset, u.files, u.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return u, nil
}

// collectDecls records the package-level declarations and methods of u's
// non-test files.
func collectDecls(u *checkUnit, decls map[string]declRange) {
	for _, f := range u.files {
		file := u.fset.File(f.Pos())
		if strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		add := func(id *ast.Ident, doc *ast.CommentGroup, node ast.Node) {
			if id.Name == "_" || id.Name == "init" {
				return
			}
			k := objKey(u.info.Defs[id])
			if k == "" {
				return
			}
			start := node.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			first, last := u.fset.Position(start).Line, u.fset.Position(node.End()).Line
			decls[k] = declRange{
				pkg: u.path, file: file.Name(), start: file.Offset(start), end: file.Offset(node.End()),
				line: first, n: last - first + 1, exported: id.IsExported(),
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Doc, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					doc, node := d.Doc, ast.Node(s)
					if d.Lparen.IsValid() {
						doc = nil
					} else {
						node = d
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						add(s.Name, doc, node)
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, id := range s.Names {
							add(id, doc, node)
						}
					}
				}
			}
		}
	}
}

// objKey names a package-level object or a concrete method as
// "importpath.Name" or "importpath.Type.Method"; anything else is "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			n := namedOf(recv.Type())
			if n == nil || types.IsInterface(n) {
				return ""
			}
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// markSatisfied marks as used every still-unused method of a type that,
// within unit u, implements an interface declared in the modules (named,
// or written as a type literal in u) or one of the standard conventions.
func markSatisfied(u *checkUnit, prefix string, decls map[string]declRange, used map[string]bool) {
	var named []*types.Named
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if types.IsInterface(t) {
				ifaces = append(ifaces, t.Underlying().(*types.Interface))
			} else if t.Obj().Pkg() != nil && strings.HasPrefix(t.Obj().Pkg().Path(), prefix) && hasUnused(t, decls, used) {
				named = append(named, t)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, obj := range u.info.Defs {
		if obj != nil {
			walk(obj.Type())
		}
	}
	for _, obj := range u.info.Uses {
		walk(obj.Type())
	}
	for e, tv := range u.info.Types {
		if _, lit := e.(*ast.InterfaceType); lit {
			ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
		}
		walk(tv.Type)
	}
	if len(named) == 0 {
		return
	}
	// Only interfaces declared in the modules count, plus the conventions:
	// matching every standard-library interface would hide real dead code.
	var mod []*types.Interface
	for _, it := range ifaces {
		if it.NumMethods() > 0 && fromModules(it, u) {
			mod = append(mod, it)
		}
	}
	mod = append(mod, conventionIfaces(u)...)
	for _, n := range named {
		for _, it := range mod {
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				for i := 0; i < it.NumMethods(); i++ {
					used[objKey(n.Obj())+"."+it.Method(i).Name()] = true
				}
			}
		}
	}
}

// fromModules reports whether an interface's methods are declared in the
// checked modules rather than in the standard library.
func fromModules(it *types.Interface, u *checkUnit) bool {
	pkg := it.Method(0).Pkg()
	return pkg == nil || !u.avail[pkg.Path()]
}

func hasUnused(n *types.Named, decls map[string]declRange, used map[string]bool) bool {
	base := objKey(n.Obj())
	for i := 0; i < n.NumMethods(); i++ {
		k := base + "." + n.Method(i).Name()
		if _, ok := decls[k]; ok && !used[k] {
			return true
		}
	}
	return false
}

// conventionIfaces returns error, interface{ Unwrap() error } (what
// errors.Is and errors.As follow) and stdConventions, as the types unit u
// resolves them to.
func conventionIfaces(u *checkUnit) []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false)
	out := []*types.Interface{
		errT.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete(),
	}
	for _, c := range stdConventions {
		if !u.avail[c.path] {
			continue
		}
		pkg, err := u.imp.Import(c.path)
		if err != nil {
			continue
		}
		if obj := pkg.Scope().Lookup(c.name); obj != nil {
			out = append(out, obj.Type().Underlying().(*types.Interface))
		}
	}
	return out
}
