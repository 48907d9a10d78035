package indice

// The reachability rule that closed ROADMAP item 4: every func, method
// and type declared in a non-test file under internal/ is reachable
// from a root. Roots are the main packages under cmd/, examples/ and
// bench/ (main, init and the package-level initializers of everything
// they import) plus whatever a _test.go file references in ANOTHER
// package: a cross-package oracle, helper or measurement hook is a
// use; a symbol only its own package's tests call is not — it lives in
// that package's _test.go files or it is deleted.
//
// A method counts as reached when it is referenced, or when its
// receiver type is reached and an interface — any declared in the
// module, or one of stdIfaces — names it.
//
// The same declaration graph, marked from the mains under cmd/ and
// examples/ alone, carries the rule for options
// (TestEveryConfigFieldIsWrittenByAMain): a reached function behind a
// switch that no production caller turns is still dead code.

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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow holds at most five symbols that stay although nothing
// reaches them, each with the reason.
var reachAllow = map[string]string{
	"internal/query.MarshalPredicate":      "writer of the JSON predicate form POST /api/query parses; the round-trip tests need both halves",
	"internal/outlier.LoadSuggestionStore": "reader of the suggestion file cmd/indice writes with SuggestionStore.Save",
}

// stdIfaces are the standard-library interfaces whose method names keep
// a method of a reached type alive; an empty list means every interface
// the package declares.
var stdIfaces = map[string][]string{
	"fmt":            {"Stringer"},
	"io":             nil,
	"sort":           {"Interface"},
	"net/http":       {"Handler", "ResponseWriter"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"container/heap": {"Interface"},
}

const reachModule = "indice"

type reachDir struct {
	path             string // import path
	rel              string // directory relative to the module root
	src, test, xtest []*ast.File
	imports          []string // module-internal imports of the non-test files
	isMain           bool
}

// reachLoader type-checks the module from source. Every file is parsed
// once, so a declaration has the same token.Pos whichever variant of
// its package (plain, with in-package tests, seen from the external
// test package) the checker is looking at; symbols are keyed by it.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*reachDir
	pkgs map[string]*types.Package
	info *types.Info
	errs []error
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != reachModule && !strings.HasPrefix(path, reachModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	d, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("no package %s in the module", path)
	}
	p := l.check(path, d.src, l, true)
	l.pkgs[path] = p
	return p, nil
}

func (l *reachLoader) check(path string, files []*ast.File, imp types.Importer, strict bool) *types.Package {
	conf := types.Config{Importer: imp, Error: func(err error) {
		if strict {
			l.errs = append(l.errs, err)
		}
	}}
	p, _ := conf.Check(path, l.fset, files, l.info)
	return p
}

// overlay resolves one import path to a given package and everything
// else through the loader: how an external test package sees the
// test-augmented variant of the package it tests.
type overlay struct {
	path string
	pkg  *types.Package
	next types.Importer
}

func (o overlay) Import(path string) (*types.Package, error) {
	if path == o.path {
		return o.pkg, nil
	}
	return o.next.Import(path)
}

// loaded is the module as loadModule type-checked it: both rules read
// the same declarations, so the module is checked once per test binary.
var loaded struct {
	sync.Mutex
	l *reachLoader
}

func loadModule(t *testing.T) *reachLoader {
	t.Helper()
	loaded.Lock()
	defer loaded.Unlock()
	if loaded.l == nil {
		loaded.l = checkModule(t)
	}
	return loaded.l
}

func checkModule(t *testing.T) *reachLoader {
	t.Helper()
	// net and os/user have cgo variants; the pure-Go files declare the
	// same API and need no C toolchain to type-check.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]*reachDir{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(filepath.Dir(p))
		path := reachModule
		if rel != "." {
			path += "/" + rel
		}
		d := l.dirs[path]
		if d == nil {
			d = &reachDir{path: path, rel: rel}
			l.dirs[path] = d
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			d.src = append(d.src, f)
			d.isMain = f.Name.Name == "main"
			for _, im := range f.Imports {
				if ip := strings.Trim(im.Path.Value, `"`); strings.HasPrefix(ip, reachModule+"/") {
					d.imports = append(d.imports, ip)
				}
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.xtest = append(d.xtest, f)
		default:
			d.test = append(d.test, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, d := range l.dirs {
		if len(d.src) > 0 {
			if _, err := l.Import(path); err != nil {
				t.Fatal(err)
			}
		}
		withTests := l.pkgs[path]
		if len(d.test) > 0 {
			withTests = l.check(path, append(append([]*ast.File{}, d.src...), d.test...), l, true)
		}
		if len(d.xtest) > 0 {
			// Packages between the external tests and the package under
			// test (geocode_test -> synth -> geocode) were checked
			// against its plain variant, so the same type can arrive
			// under two identities here; identifiers still resolve to
			// the same positions, which is all the graph reads.
			l.check(path+"_test", d.xtest, overlay{path, withTests, l}, false)
		}
	}
	if len(l.errs) > 0 {
		for _, e := range l.errs {
			t.Error(e)
		}
		t.FailNow()
	}
	return l
}

type reachSym struct {
	name    string // "internal/pkg.Func" or "internal/pkg.Type.Method"
	pos     token.Pos
	dir     *reachDir
	span    ast.Node    // where its references are read from
	rule    bool        // a func, method or type: what the rule is about
	method  string      // its bare name, for a method
	methods []*reachSym // of a type
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// reachGraph is the declaration graph of the module's non-test files:
// every func, method, type and package-level value, keyed by position,
// and the set marked reached so far.
type reachGraph struct {
	l          *reachLoader
	syms       map[token.Pos]*reachSym
	roots      []*reachSym // main, init and the package-level initializers
	ifaceNames map[string]bool
	reached    map[*reachSym]bool
	work       []*reachSym
}

func newReachGraph(t *testing.T, l *reachLoader) *reachGraph {
	t.Helper()
	g := &reachGraph{l: l, syms: map[token.Pos]*reachSym{}, ifaceNames: map[string]bool{}, reached: map[*reachSym]bool{}}
	for _, d := range l.dirs {
		pkgName := strings.TrimPrefix(d.path, reachModule+"/")
		typesByName := map[string]*reachSym{}
		methodsOf := map[string][]*reachSym{} // by receiver type name
		add := func(id *ast.Ident, span ast.Node, rule bool) *reachSym {
			s := &reachSym{name: pkgName + "." + id.Name, pos: id.Pos(), dir: d, span: span, rule: rule}
			if id.Name != "_" {
				g.syms[s.pos] = s
			}
			return s
		}
		for _, f := range d.src {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							g.ifaceNames[id.Name] = true
						}
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				switch x := decl.(type) {
				case *ast.FuncDecl:
					s := add(x.Name, x, true)
					switch {
					case x.Recv != nil:
						recv := recvName(x.Recv.List[0].Type)
						s.method = x.Name.Name
						s.name = pkgName + "." + recv + "." + s.method
						methodsOf[recv] = append(methodsOf[recv], s)
					case x.Name.Name == "init", d.isMain && x.Name.Name == "main":
						g.roots = append(g.roots, s)
					}
				case *ast.GenDecl:
					for _, spec := range x.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							typesByName[sp.Name.Name] = add(sp.Name, sp, true)
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if x.Tok == token.VAR {
									// Initializers run when the program starts.
									g.roots = append(g.roots, add(id, sp, false))
								} else {
									// An iota block repeats its first spec's type.
									add(id, x, false)
								}
							}
						}
					}
				}
			}
		}
		for name, ty := range typesByName {
			ty.methods = methodsOf[name]
		}
	}
	for path, names := range stdIfaces {
		pkg, err := l.std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, n := range names {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					g.ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
	}
	g.ifaceNames["Error"] = true // the predeclared error interface
	return g
}

// runMains reaches what the main packages under the given top-level
// directories run: main, init and the package-level initializers of
// every package they link.
func (g *reachGraph) runMains(tops ...string) {
	linked := map[string]bool{}
	var link func(path string)
	link = func(path string) {
		if linked[path] {
			return
		}
		linked[path] = true
		for _, ip := range g.l.dirs[path].imports {
			link(ip)
		}
	}
	for path, d := range g.l.dirs {
		top, _, _ := strings.Cut(d.rel, "/")
		if d.isMain && slices.Contains(tops, top) {
			link(path)
		}
	}
	for _, s := range g.roots {
		if linked[s.dir.path] {
			g.reach(s)
		}
	}
}

func (g *reachGraph) reach(s *reachSym) {
	if !g.reached[s] {
		g.reached[s] = true
		g.work = append(g.work, s)
	}
}

// eachUse calls f with every module declaration an identifier under n
// resolves to.
func (g *reachGraph) eachUse(n ast.Node, f func(*reachSym)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := g.l.info.Uses[id]; obj != nil {
				if s := g.syms[obj.Pos()]; s != nil {
					f(s)
				}
			}
		}
		return true
	})
}

// propagate reaches everything the reached declarations use.
func (g *reachGraph) propagate() {
	for len(g.work) > 0 {
		s := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.eachUse(s.span, g.reach)
		for _, m := range s.methods {
			if g.ifaceNames[m.method] {
				g.reach(m)
			}
		}
	}
}

func TestEveryInternalSymbolIsReachable(t *testing.T) {
	l := loadModule(t)
	g := newReachGraph(t, l)
	g.runMains("cmd", "examples", "bench")
	for _, d := range l.dirs {
		for _, f := range append(append([]*ast.File{}, d.test...), d.xtest...) {
			g.eachUse(f, func(s *reachSym) {
				if s.dir != d {
					g.reach(s)
				}
			})
		}
	}
	g.propagate()

	// An allowlisted symbol stays, so what only it calls stays with it.
	if len(reachAllow) > 5 {
		t.Errorf("the allowlist holds %d symbols; the rule allows five", len(reachAllow))
	}
	byName := map[string]*reachSym{}
	for _, s := range g.syms {
		byName[s.name] = s
	}
	for name := range reachAllow {
		if s := byName[name]; s == nil || g.reached[s] {
			t.Errorf("allowlist entry %s is reachable (or gone): drop it", name)
		} else {
			g.reach(s)
		}
	}
	g.propagate()

	var bad []string
	for _, s := range g.syms {
		if s.rule && !g.reached[s] && strings.HasPrefix(s.dir.rel, "internal/") {
			p := l.fset.Position(s.pos)
			bad = append(bad, fmt.Sprintf("%s:%d %s", filepath.ToSlash(p.Filename), p.Line, s.name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("unreachable from cmd/, examples/, bench/ and other packages' tests: %s", b)
	}
}

// configAllow holds at most two fields of exported …Config structs that
// stay although no main writes them, each with the reason.
var configAllow = map[string]string{}

// writtenFields calls f with the identifier of every struct field that n
// writes: the left of an assignment, the operand of ++/--, of & or a
// composite-literal key.
func writtenFields(info *types.Info, n ast.Node, f func(*ast.Ident)) {
	field := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			f(id)
		}
	}
	selected := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			field(sel.Sel)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				selected(lhs)
			}
		case *ast.IncDecStmt:
			selected(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				selected(x.X)
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				field(id)
			}
		}
		return true
	})
}

// TestEveryConfigFieldIsWrittenByAMain is the reachability rule for
// options: every field of an exported …Config struct under internal/ is
// read by non-test code and written on a path a main under cmd/ or
// examples/ runs. Tests and bench/ are not writers: a field only they
// set selects a branch no served node takes, so it goes, together with
// that branch. Setting a field's default inside the package that reads
// it (a withDefaults, a DefaultXConfig) counts as a write.
func TestEveryConfigFieldIsWrittenByAMain(t *testing.T) {
	l := loadModule(t)
	g := newReachGraph(t, l)
	g.runMains("cmd", "examples")
	g.propagate()

	// The fields under the rule, keyed by position: a use type-checked
	// with a package's tests resolves to another object at the same place.
	fields := map[token.Pos]string{}
	for path, p := range l.pkgs {
		rel := strings.TrimPrefix(path, reachModule+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fields[st.Field(i).Pos()] = rel + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}

	written := map[token.Pos]bool{}
	for s := range g.reached {
		writtenFields(l.info, s.span, func(id *ast.Ident) { written[l.info.Uses[id].Pos()] = true })
	}
	read := map[token.Pos]bool{}
	for _, d := range l.dirs {
		if top, _, _ := strings.Cut(d.rel, "/"); top == "bench" {
			continue
		}
		for _, f := range d.src {
			writes := map[*ast.Ident]bool{}
			writtenFields(l.info, f, func(id *ast.Ident) { writes[id] = true })
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !writes[id] {
					if obj := l.info.Uses[id]; obj != nil {
						read[obj.Pos()] = true
					}
				}
				return true
			})
		}
	}

	if len(configAllow) > 2 {
		t.Errorf("the allowlist holds %d fields; the rule allows two", len(configAllow))
	}
	var bad []string
	for pos, name := range fields {
		var why string
		switch {
		case !read[pos]:
			why = "no non-test code reads it"
		case !written[pos]:
			why = "no main under cmd/ or examples/ writes it"
		}
		if reason, ok := configAllow[name]; ok {
			if why == "" {
				t.Errorf("allowlist entry %s is written by a main: drop it", name)
			} else if reason == "" {
				t.Errorf("allowlist entry %s gives no reason", name)
			}
			continue
		}
		if why != "" {
			p := l.fset.Position(pos)
			bad = append(bad, fmt.Sprintf("%s:%d %s: %s", filepath.ToSlash(p.Filename), p.Line, name, why))
		}
	}
	names := map[string]bool{}
	for _, name := range fields {
		names[name] = true
	}
	for name := range configAllow {
		if !names[name] {
			t.Errorf("allowlist entry %s names no field: drop it", name)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
