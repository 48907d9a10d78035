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

func loadModule(t *testing.T) *reachLoader {
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

func TestEveryInternalSymbolIsReachable(t *testing.T) {
	l := loadModule(t)

	// Declarations of the non-test files, keyed by position.
	syms := map[token.Pos]*reachSym{}
	var roots []*reachSym
	ifaceNames := map[string]bool{}
	for _, d := range l.dirs {
		pkgName := strings.TrimPrefix(d.path, reachModule+"/")
		typesByName := map[string]*reachSym{}
		methodsOf := map[string][]*reachSym{} // by receiver type name
		add := func(id *ast.Ident, span ast.Node, rule bool) *reachSym {
			s := &reachSym{name: pkgName + "." + id.Name, pos: id.Pos(), dir: d, span: span, rule: rule}
			if id.Name != "_" {
				syms[s.pos] = s
			}
			return s
		}
		for _, f := range d.src {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceNames[id.Name] = true
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
						roots = append(roots, s)
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
									roots = append(roots, add(id, sp, false))
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
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
	}
	ifaceNames["Error"] = true // the predeclared error interface

	// Packages a production binary links: only their init functions and
	// initializers run.
	linked := map[string]bool{}
	var link func(path string)
	link = func(path string) {
		if linked[path] {
			return
		}
		linked[path] = true
		for _, ip := range l.dirs[path].imports {
			link(ip)
		}
	}
	for path, d := range l.dirs {
		top, _, _ := strings.Cut(d.rel, "/")
		if d.isMain && (top == "cmd" || top == "examples" || top == "bench") {
			link(path)
		}
	}

	// Mark.
	reached := map[*reachSym]bool{}
	var work []*reachSym
	reach := func(s *reachSym) {
		if !reached[s] {
			reached[s] = true
			work = append(work, s)
		}
	}
	for _, s := range roots {
		if linked[s.dir.path] {
			reach(s)
		}
	}
	// eachUse calls f with every module declaration an identifier under
	// n resolves to.
	eachUse := func(n ast.Node, f func(*reachSym)) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.info.Uses[id]; obj != nil {
					if s := syms[obj.Pos()]; s != nil {
						f(s)
					}
				}
			}
			return true
		})
	}
	for _, d := range l.dirs {
		for _, f := range append(append([]*ast.File{}, d.test...), d.xtest...) {
			eachUse(f, func(s *reachSym) {
				if s.dir != d {
					reach(s)
				}
			})
		}
	}
	propagate := func() {
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			eachUse(s.span, reach)
			for _, m := range s.methods {
				if ifaceNames[m.method] {
					reach(m)
				}
			}
		}
	}
	propagate()

	// An allowlisted symbol stays, so what only it calls stays with it.
	if len(reachAllow) > 5 {
		t.Errorf("the allowlist holds %d symbols; the rule allows five", len(reachAllow))
	}
	byName := map[string]*reachSym{}
	for _, s := range syms {
		byName[s.name] = s
	}
	for name := range reachAllow {
		if s := byName[name]; s == nil || reached[s] {
			t.Errorf("allowlist entry %s is reachable (or gone): drop it", name)
		} else {
			reach(s)
		}
	}
	propagate()

	var bad []string
	for _, s := range syms {
		if s.rule && !reached[s] && strings.HasPrefix(s.dir.rel, "internal/") {
			p := l.fset.Position(s.pos)
			bad = append(bad, fmt.Sprintf("%s:%d %s", filepath.ToSlash(p.Filename), p.Line, s.name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("unreachable from cmd/, examples/, bench/ and other packages' tests: %s", b)
	}
}
