// Package surface measures how much of internal/ nothing uses. It holds
// only tests, so `go test ./...` runs it and nothing is built from it.
//
// TestSurface type-checks the non-test Go files of this module and of the
// benchmark module (which imports this one through a replace directive),
// standard library included, from source, and lists:
//
//   - unreferenced: exported identifiers, methods and fields in internal/
//     that no non-test code references. cmd/, examples/, scripts/ and
//     benchmark/ are consumers like any other package. A method that
//     satisfies an interface is not a finding, nor is a struct field with
//     a tag (encoders reach it by reflection).
//   - unset: option values no non-test code sets: exported struct fields
//     in internal/ that non-test code reads but only ever assigns as a
//     default (inside an if that tests the same field), and functional
//     options (exported functions returning a type named *Option) that no
//     non-test code calls.
//   - local: exported top-level identifiers whose only non-test uses are
//     in their own package (a type also counts as used where another
//     package holds a value of it).
//
// Each list fails the test when it grows past its ceiling in
// ceilings.json. Run `go test ./scripts/surface -run 'TestSurface$' -v` to
// print the lists.
package surface

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

// ceilings is the committed ceilings.json: the most findings each list may
// hold.
type ceilings struct {
	Unreferenced int `json:"unreferenced"`
	Unset        int `json:"unset"`
	Local        int `json:"local"`
}

// report is the three lists, each sorted, one "pkg.Name[.Member]" per
// finding with the module path trimmed from pkg.
type report struct {
	Unreferenced, Unset, Local []string
}

// over names each list of r that holds more findings than its ceiling.
func (r report) over(c ceilings) []string {
	var out []string
	for _, l := range []struct {
		name  string
		found []string
		max   int
	}{{"unreferenced", r.Unreferenced, c.Unreferenced}, {"unset", r.Unset, c.Unset}, {"local", r.Local, c.Local}} {
		if len(l.found) > l.max {
			out = append(out, fmt.Sprintf("%s: %d findings, ceiling %d", l.name, len(l.found), l.max))
		}
	}
	return out
}

func TestSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	r, err := surfaceOf(root, filepath.Join(root, "benchmark"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("ceilings.json")
	if err != nil {
		t.Fatal(err)
	}
	var c ceilings
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("ceilings.json: %v", err)
	}
	for _, l := range []struct {
		name  string
		found []string
	}{{"unreferenced", r.Unreferenced}, {"unset", r.Unset}, {"local", r.Local}} {
		t.Logf("%s (%d):\n\t%s", l.name, len(l.found), strings.Join(l.found, "\n\t"))
	}
	t.Logf("counts: unreferenced %d (ceiling %d), unset %d (ceiling %d), local %d (ceiling %d)",
		len(r.Unreferenced), c.Unreferenced, len(r.Unset), c.Unset, len(r.Local), c.Local)
	for _, o := range r.over(c) {
		t.Errorf("over the ceiling in ceilings.json: %s", o)
	}
}

// surfaceOf loads the module at root and every consumer module in
// consumers, and reports the surface of root's internal/ packages.
func surfaceOf(root string, consumers ...string) (report, error) {
	mod, err := modulePath(root)
	if err != nil {
		return report{}, err
	}
	u, err := load(append([]string{root}, consumers...))
	if err != nil {
		return report{}, err
	}
	return analyse(u, mod), nil
}

func modulePath(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// pkg is one type-checked package of the loaded modules: its non-test
// files only.
type pkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

type universe struct {
	fset *token.FileSet
	pkgs []*pkg // dependencies first
}

type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// load type-checks every non-standard package `go list -deps ./...` finds
// in each module directory. Standard packages come from source through
// go/importer, so no export data or download is needed.
func load(dirs []string) (*universe, error) {
	u := &universe{fset: token.NewFileSet()}
	std := importer.ForCompiler(u.fset, "source", nil)
	byPath := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	for _, dir := range dirs {
		list, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, l := range list {
			if l.Standard || byPath[l.ImportPath] != nil {
				continue
			}
			if l.Error != nil {
				return nil, fmt.Errorf("%s: %s", l.ImportPath, l.Error.Err)
			}
			p := &pkg{path: l.ImportPath, info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			for _, name := range l.GoFiles {
				f, err := parser.ParseFile(u.fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			if p.types, err = conf.Check(l.ImportPath, u.fset, p.files, p.info); err != nil {
				return nil, err
			}
			byPath[l.ImportPath] = p.types
			u.pkgs = append(u.pkgs, p)
		}
	}
	return u, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); errors.Is(err, io.EOF) {
			return list, nil
		} else if err != nil {
			return nil, err
		}
		list = append(list, l)
	}
}

// use records where non-test code names an object: in its own package,
// in another, and (for a struct field) whether anything but a default
// assignment writes it.
type use struct {
	local, foreign bool
	read, write    bool
}

// errorsHooks are the interfaces package errors declares inside function
// bodies to find Unwrap, Is and As, which a source import does not expose.
func errorsHooks() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	sig := func(param, result types.Type) *types.Signature {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
		}
		return types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	}
	one := func(name string, s *types.Signature) *types.Interface {
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, s)}, nil).Complete()
	}
	return []*types.Interface{
		one("Unwrap", sig(nil, errT)),
		one("Unwrap", sig(nil, types.NewSlice(errT))),
		one("Is", sig(errT, types.Typ[types.Bool])),
		one("As", sig(types.Universe.Lookup("any").Type(), types.Typ[types.Bool])),
	}
}

func analyse(u *universe, mod string) report {
	uses := map[types.Object]*use{}
	at := func(o types.Object) *use {
		o = origin(o)
		if uses[o] == nil {
			uses[o] = &use{}
		}
		return uses[o]
	}
	mark := func(o types.Object, from string) *use {
		us := at(o)
		switch {
		case o.Pkg() == nil: // universe: error, any, ...
		case o.Pkg().Path() == from:
			us.local = true
		default:
			us.foreign = true
		}
		return us
	}
	satisfied := map[types.Object]bool{}
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range u.pkgs {
		for _, o := range p.info.Uses {
			mark(o, p.path)
		}
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			if n := namedIn(tv.Type); n != nil {
				mark(n.Origin().Obj(), p.path)
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, o := range p.info.Defs {
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
		for _, f := range p.files {
			walkFields(p, f, mark)
		}
	}
	scopes := stdClosure(u)
	for _, p := range u.pkgs {
		scopes = append(scopes, p.types)
	}
	for _, sp := range scopes {
		for _, name := range sp.Scope().Names() {
			if tn, ok := sp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	ifaces = append(ifaces, errorsHooks()...)
	methods := map[*types.Named]map[string]bool{}
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n))
		methods[n] = map[string]bool{}
		for i := 0; i < ms.Len(); i++ {
			methods[n][ms.At(i).Obj().Name()] = true
		}
	}
	seenIface := map[*types.Interface]bool{}
	for _, it := range ifaces {
		if seenIface[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			continue
		}
		seenIface[it] = true
		for n, names := range methods {
			ptr := types.NewPointer(n)
			if !names[it.Method(0).Name()] || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if o, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); o != nil {
					satisfied[origin(o)] = true
				}
			}
		}
	}

	var r report
	prefix := mod + "/internal/"
	short := func(path string) string { return strings.TrimPrefix(path, mod+"/") }
	unreferenced := func(o types.Object) bool {
		us := uses[o]
		return (us == nil || !us.local && !us.foreign) && !satisfied[o]
	}
	for _, p := range u.pkgs {
		if !strings.HasPrefix(p.path+"/", prefix) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			id := short(p.path) + "." + name
			if o.Exported() {
				if unreferenced(o) {
					r.Unreferenced = append(r.Unreferenced, id)
				} else if us := uses[o]; us.local && !us.foreign {
					r.Local = append(r.Local, id)
				}
				if f, ok := o.(*types.Func); ok && unreferenced(o) && returnsOption(f) {
					r.Unset = append(r.Unset, id)
				}
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() && unreferenced(m) {
					r.Unreferenced = append(r.Unreferenced, id+"."+m.Name())
				}
			}
			switch t := n.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < t.NumExplicitMethods(); i++ {
					if m := t.ExplicitMethod(i); m.Exported() && unreferenced(m) {
						r.Unreferenced = append(r.Unreferenced, id+"."+m.Name())
					}
				}
			case *types.Struct:
				for i := 0; i < t.NumFields(); i++ {
					f := t.Field(i)
					if !f.Exported() || f.Embedded() || t.Tag(i) != "" {
						continue
					}
					if unreferenced(f) {
						r.Unreferenced = append(r.Unreferenced, id+"."+f.Name())
					} else if us := uses[f]; us.read && !us.write {
						r.Unset = append(r.Unset, id+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(r.Unreferenced)
	sort.Strings(r.Unset)
	sort.Strings(r.Local)
	return r
}

// walkFields records, for every struct field non-test code selects or
// keys in a composite literal, whether it is read and whether it is
// written other than as a default. An unkeyed literal writes every field.
func walkFields(p *pkg, f *ast.File, mark func(types.Object, string) *use) {
	at := func(o types.Object) *use { return mark(o, p.path) }
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := typeOf(p, n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if fv, ok := p.info.Uses[id].(*types.Var); ok && fv.IsField() {
							at(fv).write = true
						}
					}
				} else {
					for i := 0; i < st.NumFields(); i++ {
						at(st.Field(i)).write = true
					}
					break
				}
			}
		case *ast.SelectorExpr:
			s := p.info.Selections[n]
			if s == nil || s.Kind() != types.FieldVal {
				break
			}
			fv := s.Obj()
			switch pn := parent.(type) {
			case *ast.AssignStmt:
				if !inExprs(n, pn.Lhs) {
					at(fv).read = true
				} else if pn.Tok != token.ASSIGN || !defaulted(p, fv, stack) {
					written(p, n, at)
				}
			case *ast.IncDecStmt, *ast.RangeStmt:
				written(p, n, at)
			case *ast.UnaryExpr:
				if pn.Op == token.AND {
					written(p, n, at)
				} else {
					at(fv).read = true
				}
			case *ast.SelectorExpr:
				// A pointer method on a field value (hs.Launched.Add(1))
				// may change it.
				if m := p.info.Selections[pn]; m != nil && m.Kind() == types.MethodVal && pointerRecv(m.Obj()) && !isPointer(fv.Type()) {
					written(p, n, at)
				} else {
					at(fv).read = true
				}
			default:
				at(fv).read = true
			}
		}
		return true
	})
}

// written marks the field e selects as written, and so every field it is
// reached through: `r.Breaker.FailureThreshold = 3` sets Breaker too.
func written(p *pkg, e ast.Expr, at func(types.Object) *use) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if s := p.info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				at(s.Obj()).write = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

func pointerRecv(o types.Object) bool {
	return isPointer(o.Type().(*types.Signature).Recv().Type())
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// defaulted reports whether the assignment at the top of stack sits in an
// if statement whose condition reads the same field, as in
// `if c.N == 0 { c.N = 8 }`.
func defaulted(p *pkg, fv types.Object, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			found := false
			ast.Inspect(s.Cond, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && p.info.Uses[sel.Sel] == fv {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

func inExprs(e ast.Expr, list []ast.Expr) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

func typeOf(p *pkg, e ast.Expr) types.Type {
	if t := p.info.TypeOf(e); t != nil {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			return ptr.Elem()
		}
		return t
	}
	return types.Typ[types.Invalid]
}

// namedIn is the named type a value of type t is, or holds through
// pointers, slices, arrays, maps and channels; nil if none.
func namedIn(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Named:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		default:
			return nil
		}
	}
}

// returnsOption reports whether f returns a type whose name ends in
// Option: a functional option.
func returnsOption(f *types.Func) bool {
	res := f.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if n := namedIn(res.At(i).Type()); n != nil && strings.HasSuffix(n.Obj().Name(), "Option") {
			return true
		}
	}
	return false
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// stdClosure is every standard package the loaded packages reach.
func stdClosure(u *universe) []*types.Package {
	own := map[*types.Package]bool{}
	for _, p := range u.pkgs {
		own[p.types] = true
	}
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		for _, dep := range tp.Imports() {
			if seen[dep] {
				continue
			}
			seen[dep] = true
			if !own[dep] {
				out = append(out, dep)
			}
			visit(dep)
		}
	}
	for _, p := range u.pkgs {
		visit(p.types)
	}
	return out
}
