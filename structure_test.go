package indep

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleDecl is one top-level declaration of the module's non-test source:
// the package directory it sits in, relative to the module root, and its
// name ("(*Recv).Method" for a method, "" for anything but a function).
type moduleDecl struct {
	dir, name string
	decl      ast.Decl
}

// parseModule parses every non-test .go file of the module outside bench/
// and examples/, which are programs over the library rather than part of it.
func parseModule(t *testing.T) []moduleDecl {
	t.Helper()
	var decls []moduleDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (path == "bench" || path == "examples" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			decls = append(decls, moduleDecl{dir: dir, name: declName(decl), decl: decl})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// declName names a function or method declaration; any other declaration
// is "".
func declName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ, star := fd.Recv.List[0].Type, ""
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, "*"
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return "(" + star + typ.(*ast.Ident).Name + ")." + fd.Name.Name
}

// sites returns "dir name" for every node of the module that match
// selects, once per node, sorted.
func sites(decls []moduleDecl, match func(dir string, n ast.Node) bool) []string {
	var out []string
	for _, d := range decls {
		ast.Inspect(d.decl, func(n ast.Node) bool {
			if n != nil && match(d.dir, n) {
				out = append(out, d.dir+" "+d.name)
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// calls reports whether n calls a function or method called name, and, when
// recv is set, one reached through a field or variable called recv
// (x.recv.name or recv.name).
func calls(n ast.Node, name, recv string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return recv == "" && fn.Name == name
	case *ast.SelectorExpr:
		if fn.Sel.Name != name {
			return false
		}
		switch x := fn.X.(type) {
		case *ast.Ident:
			return recv == "" || x.Name == recv
		case *ast.SelectorExpr:
			return recv == "" || x.Sel.Name == recv
		}
		return recv == ""
	}
	return false
}

// TestStructure pins where the mechanisms that must exist once live, by
// parsing the module's source:
//   - a log rotation outside internal/wal happens only where a state image
//     is cut, (*DurableStore).cut;
//   - readmit, the re-admission of a checkpoint's tuples, is called only
//     from installCheckpoint;
//   - in internal/engine a maintainer's Apply (the guard's or the chase's)
//     is called only from (*Engine).apply, the engine's one apply routine;
//   - internal/cluster starts goroutines in one place, (*Router).fanOut,
//     the router's one concurrent shard-call routine;
//   - a shard is reached through ApplyPartial, Window and Ping only, and
//     the router has no per-op write method;
//   - in internal/engine relation instances are copied only by
//     (*Engine).cut, the one cut behind snapshots, checkpoints and query
//     snapshots;
//   - maintenance's walk is the only loop that applies ops through a
//     maintainer's one-tuple calls (InsertReport, Delete);
//   - internal/wal declares one record kind, kindCommit.
//
// A change that adds a second path fails here; one that moves a mechanism
// on purpose updates the expectation below.
func TestStructure(t *testing.T) {
	decls := parseModule(t)
	var transport, routerWrites, walKinds []string
	for _, d := range decls {
		if gd, ok := d.decl.(*ast.GenDecl); ok && d.dir == "internal/wal" && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(n.Name, "kind") {
						walKinds = append(walKinds, n.Name)
					}
				}
			}
		}
		if d.dir != "internal/cluster" {
			continue
		}
		if gd, ok := d.decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Transport" {
					continue
				}
				for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
					if len(m.Names) == 0 {
						transport = append(transport, "embedded interface") // no hidden methods
					}
					for _, n := range m.Names {
						transport = append(transport, n.Name)
					}
				}
			}
		}
		switch d.name {
		case "(*Router).Insert", "(*Router).Delete", "(Router).Insert", "(Router).Delete":
			routerWrites = append(routerWrites, d.name)
		}
	}
	slices.Sort(transport)

	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{
			"Rotate() calls outside internal/wal",
			sites(decls, func(dir string, n ast.Node) bool {
				return dir != "internal/wal" && calls(n, "Rotate", "") && len(n.(*ast.CallExpr).Args) == 0
			}),
			[]string{". (*DurableStore).cut"},
		},
		{
			"functions calling readmit",
			slices.Compact(sites(decls, func(dir string, n ast.Node) bool { return dir == "." && calls(n, "readmit", "") })),
			[]string{". installCheckpoint"},
		},
		{
			"internal/engine functions calling a maintainer's Apply",
			slices.Compact(sites(decls, func(dir string, n ast.Node) bool {
				return dir == "internal/engine" && (calls(n, "Apply", "guard") || calls(n, "Apply", "chase"))
			})),
			[]string{"internal/engine (*Engine).apply"},
		},
		{
			"go statements in internal/cluster",
			sites(decls, func(dir string, n ast.Node) bool {
				_, ok := n.(*ast.GoStmt)
				return ok && dir == "internal/cluster"
			}),
			[]string{"internal/cluster (*Router).fanOut"},
		},
		{"cluster.Transport methods", transport, []string{"ApplyPartial", "Ping", "Window"}},
		{"cluster.Router write methods", routerWrites, nil},
		{
			"internal/engine functions copying relation instances",
			slices.Compact(sites(decls, func(dir string, n ast.Node) bool {
				return dir == "internal/engine" &&
					(calls(n, "Snapshot", "") && len(n.(*ast.CallExpr).Args) == 1 || calls(n, "Clone", ""))
			})),
			[]string{"internal/engine (*Engine).cut"},
		},
		{
			"loops applying ops through a maintainer's one-tuple calls",
			slices.Compact(sites(decls, func(dir string, n ast.Node) bool {
				var body *ast.BlockStmt
				switch l := n.(type) {
				case *ast.ForStmt:
					body = l.Body
				case *ast.RangeStmt:
					body = l.Body
				default:
					return false
				}
				found := false
				ast.Inspect(body, func(m ast.Node) bool {
					found = found || m != nil && (calls(m, "InsertReport", "") || calls(m, "Delete", ""))
					return !found
				})
				return found
			})),
			[]string{"internal/maintenance walk"},
		},
		{"internal/wal record kinds", walKinds, []string{"kindCommit"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: %q, want %q", c.what, c.got, c.want)
		}
	}
}
