package wsncover

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedAllowlist names the exported declarations under internal/ that
// no non-test code references but that stay, each with its reason.
// Something kept only because perfbench/ calls it needs no entry: the
// gate type-checks perfbench/ as a caller.
var unusedAllowlist = map[string]string{
	"wsncover/internal/sim.CheckInvariants":          "the invariant oracle FuzzScenario and the trial tests call; the planned per-round audit runs it from the runners",
	"wsncover/internal/network.Network.SetObserver":  "the network's event hook: the network and deploy tests attach observers through it, and the planned trial replay will",
	"wsncover/internal/experiment.Aggregate":         "the batch reference TestAccumulatorMatchesAggregate and BenchmarkCampaignAggregation compare the streaming Accumulator against",
	"wsncover/internal/network.Network.MessagesLost": "test probe: the lossy-radio and pooled-vs-fresh tests read the radio's drop count",
}

// TestNoUnusedExports fails when a package under internal/ has no
// importer in this module's non-test code, when an exported declaration
// there has no reference from the non-test code of this module or of
// perfbench/ and unusedAllowlist does not name it, and when an
// allowlist entry is used or gone.
func TestNoUnusedExports(t *testing.T) {
	for _, f := range unusedExportFindings(t, []string{".", "perfbench"}, unusedAllowlist) {
		t.Error(f)
	}
}

// TestUnusedExportsFixture runs the gate on a small module whose
// findings are known: an unused func, method, type and const, a symbol
// only a _test.go file uses, an orphan package, and three allowlist
// entries of which two are stale. A String method, a method that
// implements a module interface and one that implements io.Closer are
// not findings, and a caller in a second module (as perfbench/ is)
// counts.
func TestUnusedExportsFixture(t *testing.T) {
	dir := filepath.Join("testdata", "unused")
	allow := map[string]string{
		"fixture/internal/lib.Kept": "an oracle",
		"fixture/internal/lib.New":  "stale: main calls it",
		"fixture/internal/lib.Gone": "stale: never declared",
	}
	got := unusedExportFindings(t, []string{dir, filepath.Join(dir, "bench")}, allow)
	want := []string{
		"fixture/internal/lib.Gone: allowlisted but not declared",
		"fixture/internal/lib.Limit: unused",
		"fixture/internal/lib.New: allowlisted but used",
		"fixture/internal/lib.Orphan: unused",
		"fixture/internal/lib.Square.Scale: unused",
		"fixture/internal/lib.TestOnly: unused",
		"fixture/internal/lib.Unused: unused",
		"fixture/internal/orphan: no non-test importer",
		"fixture/internal/orphan.Hello: unused",
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// unusedExportFindings type-checks the non-test files of every package
// of the modules in dirs (the first is the module whose internal/
// packages are audited; the rest are callers) and returns one sorted
// line per package of the first module that no non-test package of
// that module imports, per unused, unlisted export and per stale
// allowlist entry. A type named only in its own method receivers is
// unused.
func unusedExportFindings(t *testing.T, dirs []string, allow map[string]string) []string {
	t.Helper()
	l := &exportLoader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		recv: map[*ast.Ident]bool{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	var own, audited []*types.Package
	for i, dir := range dirs {
		mod, pkgs := goList(t, dir)
		for _, p := range pkgs {
			if l.pkgs[p.path] != nil {
				continue
			}
			pkg, err := l.check(p)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.path, err)
			}
			if i > 0 {
				continue
			}
			own = append(own, pkg)
			if strings.HasPrefix(p.path+"/", mod+"/internal/") {
				audited = append(audited, pkg)
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if !l.recv[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range l.info.Selections {
		used[origin(sel.Obj())] = true
	}
	ifaces := l.interfaces(t)

	imported := map[*types.Package]bool{}
	for _, pkg := range own {
		for _, imp := range pkg.Imports() {
			imported[imp] = true
		}
	}

	declared := map[string]bool{}
	var unused, findings []string
	note := func(obj types.Object, name string) {
		declared[name] = true
		if !used[obj] {
			unused = append(unused, name)
		}
	}
	for _, pkg := range audited {
		if !imported[pkg] {
			findings = append(findings, pkg.Path()+": no non-test importer")
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				note(obj, pkg.Path()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !implementsMethod(named, m.Name(), ifaces) {
					note(m, pkg.Path()+"."+name+"."+m.Name())
				}
			}
		}
	}

	for _, name := range unused {
		if _, ok := allow[name]; !ok {
			findings = append(findings, name+": unused")
		}
	}
	for name := range allow {
		switch {
		case !declared[name]:
			findings = append(findings, name+": allowlisted but not declared")
		case !slices.Contains(unused, name):
			findings = append(findings, name+": allowlisted but used")
		}
	}
	sort.Strings(findings)
	return findings
}

// listedPkg is one package as go list reports it.
type listedPkg struct {
	path, dir string
	files     []string
}

// goList returns the module path of dir and its packages with their
// dependencies from the same or a replaced module, dependencies first,
// each with the non-test Go files the current build context selects.
func goList(t *testing.T, dir string) (string, []listedPkg) {
	t.Helper()
	run := func(args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
		}
		return out
	}
	mod := strings.TrimSpace(string(run("list", "-m")))
	out := run("list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}	{{.Dir}}{{range .GoFiles}}	{{.}}{{end}}{{end}}`, "./...")
	var pkgs []listedPkg
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) < 2 {
			continue
		}
		pkgs = append(pkgs, listedPkg{path: f[0], dir: f[1], files: f[2:]})
	}
	return mod, pkgs
}

// exportLoader type-checks module packages from source, in dependency
// order, into one shared Info; the standard library comes from export
// data. recv holds the identifiers of method receiver types.
type exportLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	recv map[*ast.Ident]bool
	info *types.Info
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	return l.std.Import(path)
}

func (l *exportLoader) check(p listedPkg) (*types.Package, error) {
	var files []*ast.File
	for _, name := range p.files {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recv[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p.path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p.path] = pkg
	return pkg, nil
}

// interfaces returns every interface declared at package level in a
// loaded module package, every interface whose method the loaded code
// calls (so an assertion to interface{ ResetFailed() } counts), and the
// standard-library interfaces this code satisfies.
func (l *exportLoader) interfaces(t *testing.T) []*types.Interface {
	t.Helper()
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	addType := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			addType(tn.Type())
		}
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			add(pkg.Scope().Lookup(name))
		}
	}
	for _, sel := range l.info.Selections {
		addType(sel.Recv())
	}
	add(types.Universe.Lookup("error"))
	for _, q := range []string{
		"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler",
		"flag.Value", "sort.Interface", "net/http.Handler", "math/rand.Source", "io.*",
	} {
		i := strings.LastIndex(q, ".")
		pkg, err := l.std.Import(q[:i])
		if err != nil {
			t.Fatal(err)
		}
		if q[i+1:] != "*" {
			add(pkg.Scope().Lookup(q[i+1:]))
			continue
		}
		for _, name := range pkg.Scope().Names() {
			add(pkg.Scope().Lookup(name))
		}
	}
	return out
}

// implementsMethod reports whether named or *named implements one of
// ifaces that has a method called name.
func implementsMethod(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// origin maps a method or field of an instantiated generic type to its
// generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
