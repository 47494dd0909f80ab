package clydesdale_bench

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden without the entries that no longer apply")

const (
	modulePath    = "clydesdale"
	surfaceGolden = "testdata/surface.golden"
)

// TestExportedSurface holds the exported surface of internal/ to what the
// program uses. It lists every exported name, method and field of an
// internal/ package that no non-test file of the module references, and
// every field of an …Options or …Config type that no non-test file sets,
// and compares the list with testdata/surface.golden. Code under cmd/,
// examples/ and benchmark/ is a caller like any other. Not listed:
// methods that satisfy an interface declared in the module (or
// fmt.Stringer, error, json.Marshaler, io.Seeker), directly or through a
// type that embeds them; and packages only tests import. A type's mention
// in its own methods' receivers is not a reference.
//
// The list may only shrink. A new entry fails the test: delete the name,
// unexport it (a package's own tests reach it through export_test.go) or
// make it a constant. An entry that no longer applies fails it too, until
// `go test -run TestExportedSurface -update .` rewrites the golden; -update
// refuses a list longer than the golden's.
func TestExportedSurface(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	got, users, err := m.surface()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		if u := users[e]; len(u) > 0 {
			t.Logf("%s: used by the tests of %s", e, strings.Join(u, ", "))
		}
	}

	want, err := readSurfaceGolden()
	if err != nil {
		t.Fatal(err)
	}
	added, gone := difference(got, want), difference(want, got)
	if len(added) == 0 && len(gone) == 0 {
		return
	}
	if *updateSurface && len(got) <= len(want) {
		writeSurfaceGolden(t, got)
		return
	}
	if len(added) > 0 {
		t.Errorf("new entries: give each a non-test caller, delete it, unexport it or make it a constant (-update does not grow the list):\n\t%s",
			strings.Join(added, "\n\t"))
	}
	if len(gone) > 0 {
		t.Errorf("%s lists entries that no longer apply; rerun with -update:\n\t%s",
			surfaceGolden, strings.Join(gone, "\n\t"))
	}
}

// TestBinariesAreSmoked holds every program under cmd/ and examples/ to
// two places: Makefile examples-smoke runs it, and README.md names it. A
// binary that is neither run nor documented goes.
func TestBinariesAreSmoked(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	smoke := expandLoops(makeRecipe(string(makefile), "examples-smoke"))
	if smoke == "" {
		t.Fatal("Makefile has no examples-smoke recipe")
	}
	var mains []string
	for _, root := range []string{"cmd", "examples"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if !d.IsDir() {
				continue
			}
			bp, err := build.ImportDir(filepath.Join(root, d.Name()), 0)
			if err == nil && bp.IsCommand() {
				mains = append(mains, root+"/"+d.Name())
			}
		}
	}
	if len(mains) == 0 {
		t.Fatal("no main package under cmd/ or examples/")
	}
	for _, dir := range mains {
		named := regexp.MustCompile(`(^|[^\w/])(\./)?` + regexp.QuoteMeta(dir) + `\b`)
		if !named.MatchString(smoke) {
			t.Errorf("%s: not run by Makefile examples-smoke", dir)
		}
		if !named.Match(readme) {
			t.Errorf("%s: not named in README.md", dir)
		}
	}
}

// makeRecipe returns the recipe lines of a Makefile target, joined.
func makeRecipe(makefile, target string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(makefile, "\n") {
		switch {
		case strings.HasPrefix(line, target+":"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			b.WriteString(line)
			b.WriteByte('\n')
		case in:
			return b.String()
		}
	}
	return b.String()
}

var shellLoop = regexp.MustCompile(`for (\w+) in ([^;]+);`)

// expandLoops appends, for each `for v in a b c;` of a recipe, the recipe
// with $$v replaced by each word, so a program run by a loop is named.
func expandLoops(recipe string) string {
	out := recipe
	for _, m := range shellLoop.FindAllStringSubmatch(recipe, -1) {
		for _, word := range strings.Fields(m[2]) {
			out += strings.ReplaceAll(recipe, "$$"+m[1], word)
		}
	}
	return out
}

// surfacePkg is one package of the module: its files and, once checked,
// the package its non-test files make.
type surfacePkg struct {
	path    string
	bp      *build.Package
	files   []*ast.File // non-test
	tests   []*ast.File // package p's _test.go files
	xtests  []*ast.File // package p_test
	pkg     *types.Package
	checked bool
}

// module is the whole module parsed into one file set, with every
// reference to a module object from every file, test or not.
type module struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*surfacePkg
	// refs maps a declaration to where it is referenced from: "" for a
	// non-test file, else the import path of the package whose tests do.
	refs map[token.Pos]map[string]bool
	// sets holds the fields a non-test file assigns, keys in a literal or
	// takes the address of.
	sets map[token.Pos]bool
	// receivers holds the identifiers in method receivers.
	receivers map[*ast.Ident]bool
}

func loadModule(root string) (*module, error) {
	// The source importer type-checks the standard library as the go tool
	// would build it; with cgo off no C toolchain is run to do it.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		fset:      fset,
		std:       importer.ForCompiler(fset, "source", nil),
		pkgs:      map[string]*surfacePkg{},
		refs:      map[token.Pos]map[string]bool{},
		sets:      map[token.Pos]bool{},
		receivers: map[*ast.Ident]bool{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) && len(bp.TestGoFiles)+len(bp.XTestGoFiles) == 0 {
			return nil
		} else if err != nil && !errors.As(err, &noGo) {
			return err
		}
		p := &surfacePkg{path: modulePath, bp: bp}
		if dir != root {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, set := range []struct {
			names []string
			dst   *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.dst = append(*set.dst, f)
				m.markReceivers(f)
			}
		}
		m.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	paths := m.paths()
	for _, path := range paths {
		if _, err := m.nonTest(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		p := m.pkgs[path]
		variant := p.pkg
		if len(p.tests) > 0 {
			files := append(append([]*ast.File{}, p.files...), p.tests...)
			pkg, info, err := m.check(path, files, importerFunc(m.nonTest))
			if err != nil {
				return nil, err
			}
			m.record(info, p.tests, path)
			variant = pkg
		}
		if len(p.xtests) > 0 {
			_, info, err := m.check(path+"_test", p.xtests, m.testImporter(path, variant))
			if err != nil {
				return nil, err
			}
			m.record(info, p.xtests, path)
		}
	}
	return m, nil
}

func (m *module) paths() []string { return slices.Sorted(maps.Keys(m.pkgs)) }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// nonTest returns the module package made of the non-test files at path,
// checking it (and recording its references and sets) the first time;
// any other path is the standard library's.
func (m *module) nonTest(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.checked {
		return p.pkg, nil
	}
	p.checked = true
	pkg, info, err := m.check(path, p.files, importerFunc(m.nonTest))
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	m.record(info, p.files, "")
	m.recordSets(info, p.files)
	return pkg, nil
}

// testImporter resolves the imports of package path's external tests as
// the go tool does: path itself is the variant built with its in-package
// tests, and every module package that imports it is checked again
// against that variant.
func (m *module) testImporter(path string, variant *types.Package) types.Importer {
	if variant == m.pkgs[path].pkg {
		return importerFunc(m.nonTest)
	}
	memo := map[string]*types.Package{path: variant}
	var imp importerFunc
	imp = func(dep string) (*types.Package, error) {
		if pkg, ok := memo[dep]; ok {
			return pkg, nil
		}
		if m.pkgs[dep] == nil || !m.dependsOn(dep, path) {
			return m.nonTest(dep)
		}
		pkg, _, err := m.check(dep, m.pkgs[dep].files, imp)
		memo[dep] = pkg
		return pkg, err
	}
	return imp
}

func (m *module) dependsOn(from, to string) bool {
	p := m.pkgs[from]
	if p == nil {
		return false
	}
	for _, imp := range p.bp.Imports {
		if imp == to || m.dependsOn(imp, to) {
			return true
		}
	}
	return false
}

func (m *module) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

func (m *module) markReceivers(f *ast.File) {
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
			ast.Inspect(fn.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					m.receivers[id] = true
				}
				return true
			})
		}
	}
}

// record notes every reference the files make to a module object, from
// where: "" for non-test files, else the package path whose tests they are.
func (m *module) record(info *types.Info, files []*ast.File, where string) {
	in := map[*token.File]bool{}
	for _, f := range files {
		in[m.fset.File(f.Pos())] = true
	}
	for id, obj := range info.Uses {
		if m.receivers[id] || obj.Pkg() == nil || !in[m.fset.File(id.Pos())] {
			continue
		}
		if path := obj.Pkg().Path(); path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			continue
		}
		pos := origin(obj).Pos()
		if m.refs[pos] == nil {
			m.refs[pos] = map[string]bool{}
		}
		m.refs[pos][where] = true
	}
}

// recordSets notes the fields the files set: literal keys (every field of
// an unkeyed literal), assignment and inc/dec targets, and &x.f.
func (m *module) recordSets(info *types.Info, files []*ast.File) {
	set := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if obj := info.Uses[sel.Sel]; obj != nil {
				m.sets[origin(obj).Pos()] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, _ := types.Unalias(info.Types[n].Type).Underlying().(*types.Struct)
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
							m.sets[origin(info.Uses[id]).Pos()] = true
						}
					} else if st != nil {
						for i := 0; i < st.NumFields(); i++ {
							m.sets[st.Field(i).Pos()] = true
						}
						break
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					set(lhs)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			}
			return true
		})
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfying returns the methods that satisfy an interface declared in
// the module or one of the standard ones, on the type that declares them
// or on a type that embeds it.
func (m *module) satisfying() (map[token.Pos]bool, error) {
	var ifaces []*types.Interface
	for _, std := range []struct{ path, name string }{
		{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"io", "Seeker"},
	} {
		pkg, err := m.std.Import(std.path)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var named []*types.Named
	for _, path := range m.paths() {
		p := m.pkgs[path]
		if p.pkg == nil {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			named = append(named, n)
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	out := map[token.Pos]bool{}
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			for _, it := range ifaces {
				if it == n.Underlying() || !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(t, false, n.Obj().Pkg(), it.Method(i).Name())
					if obj != nil {
						out[origin(obj).Pos()] = true
					}
				}
			}
		}
	}
	return out, nil
}

// surface lists the golden's entries, "category pkg.Name", sorted, and
// for each the packages whose tests reference it.
func (m *module) surface() ([]string, map[string][]string, error) {
	satisfies, err := m.satisfying()
	if err != nil {
		return nil, nil, err
	}
	importedByCode := map[string]bool{}
	for _, p := range m.pkgs {
		for _, imp := range p.bp.Imports {
			importedByCode[imp] = true
		}
	}
	var out []string
	users := map[string][]string{}
	add := func(pkg *types.Package, name string, obj types.Object, option bool) {
		refs := m.refs[obj.Pos()]
		var category string
		switch {
		case refs[""] && option && !m.sets[obj.Pos()]:
			category = "option-field"
		case refs[""]:
			return
		case len(refs) == 0:
			category = "unreferenced"
		case len(refs) == 1 && refs[pkg.Path()]:
			category = "own-tests-only"
		default:
			category = "tests-only"
		}
		e := category + " " + pkg.Name() + "." + name
		out = append(out, e)
		for where := range refs {
			if where != "" {
				users[e] = append(users[e], strings.TrimPrefix(where, modulePath+"/"))
			}
		}
		sort.Strings(users[e])
	}
	for _, path := range m.paths() {
		p := m.pkgs[path]
		if !strings.HasPrefix(path, modulePath+"/internal/") || !importedByCode[path] {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			add(p.pkg, name, obj, false)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if meth := n.Method(i); meth.Exported() && !satisfies[meth.Pos()] {
					add(p.pkg, name+"."+meth.Name(), meth, false)
				}
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				option := strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						add(p.pkg, name+"."+f.Name(), f, option)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if meth := u.ExplicitMethod(i); meth.Exported() {
						add(p.pkg, name+"."+meth.Name(), meth, false)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, users, nil
}

// difference returns the entries of a not in b.
func difference(a, b []string) []string {
	in := map[string]bool{}
	for _, e := range b {
		in[e] = true
	}
	var out []string
	for _, e := range a {
		if !in[e] {
			out = append(out, e)
		}
	}
	return out
}

func readSurfaceGolden() ([]string, error) {
	b, err := os.ReadFile(surfaceGolden)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, nil
}

const surfaceHeader = `# Exported names of internal/ packages that no non-test code uses, one
# "category package.Name" a line (TestExportedSurface, surface_test.go).
#   unreferenced    nothing references it
#   own-tests-only  only its own package's tests do
#   tests-only      tests of other packages do
#   option-field    an …Options/…Config field no non-test code sets
# The list only shrinks: rerun with -update after removing an entry.
`

func writeSurfaceGolden(t *testing.T, entries []string) {
	t.Helper()
	body := surfaceHeader + strings.Join(entries, "\n") + "\n"
	if err := os.WriteFile(surfaceGolden, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
