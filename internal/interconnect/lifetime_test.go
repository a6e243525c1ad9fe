package interconnect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMessagePointersKept enforces the one lifetime rule of delivered
// messages statically: the *msg.Message a Handler receives points into
// the network's delivery record and is valid only during Handle, so no
// program code may store one. It parses every non-test Go file of the
// module and fails on any struct field, slice or array element, map
// value or channel element of type *msg.Message (*Message inside
// package msg). Receivers that keep a message keep a copy of the value.
func TestNoMessagePointersKept(t *testing.T) {
	walkModule(t, func(path string, f *ast.File) []keptSite {
		return keptPointers(f, "msg", "Message")
	}, "of type *msg.Message outlives Handle; keep a msg.Message value")
}

// TestNoMSHRPointersKept enforces the lifetime of MSHR records: a
// controller's MSHR file recycles a record when its miss retires, so a
// *machine.MSHR names a miss only until CompleteMiss. Outside package
// machine, which owns the file, no struct field, slice or array element,
// map value or channel element may hold one; code that must recognise a
// miss later keeps its Serial.
func TestNoMSHRPointersKept(t *testing.T) {
	own := filepath.Join("..", "..", "internal", "machine")
	walkModule(t, func(path string, f *ast.File) []keptSite {
		if filepath.Dir(path) == own {
			return nil
		}
		return keptPointers(f, "machine", "MSHR")
	}, "of type *machine.MSHR outlives its miss; keep the miss's Serial")
}

// walkModule parses every non-test Go file of the module and fails the
// test on each site check returns, with the message why.
func walkModule(t *testing.T, check func(path string, f *ast.File) []keptSite, why string) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, site := range check(path, f) {
			t.Errorf("%s: %s %s", fset.Position(site.pos), site.what, why)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 20 {
		t.Fatalf("parsed only %d Go files under %s; the walk is not covering the module", files, root)
	}
}

// TestKeptMessagePointersChecker checks that the lifetime checker flags
// every storage form it is meant to, and nothing else, for both types it
// guards.
func TestKeptMessagePointersChecker(t *testing.T) {
	const src = `package p
import "tokencoherence/internal/msg"
type a struct{ m *msg.Message }
type b struct{ ms []*msg.Message }
type c struct{ ms [4]*msg.Message }
type d map[int]*msg.Message
type e chan *msg.Message
var f []*msg.Message
type ok struct {
	m  msg.Message
	ms []msg.Message
	h  func(*msg.Message)
	o  *other.Message
	p  *msg.Port
}
func g(m *msg.Message) *msg.Message { return m }
`
	want := []string{"struct field", "slice element", "array element", "map value", "channel element", "slice element"}
	for _, c := range []struct{ pkg, typ string }{{"msg", "Message"}, {"machine", "MSHR"}} {
		f, err := parser.ParseFile(token.NewFileSet(), "p.go", strings.NewReplacer("msg.", c.pkg+".", "Message", c.typ).Replace(src), parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range keptPointers(f, c.pkg, c.typ) {
			got = append(got, s.what)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s.%s: flagged %q, want %q", c.pkg, c.typ, got, want)
		}
	}
	// Inside the type's own package the bare name is the type.
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", "package machine\ntype file struct{ recs []*MSHR }\n", parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := keptPointers(f, "machine", "MSHR"); len(got) != 1 || got[0].what != "slice element" {
		t.Errorf("package machine: flagged %v, want one slice element", got)
	}
}

type keptSite struct {
	pos  token.Pos
	what string
}

// keptPointers returns the places in f that can store a *pkg.typ (a
// *typ inside package pkg) beyond the call that received it.
func keptPointers(f *ast.File, pkg, typ string) []keptSite {
	inPkg := f.Name.Name == pkg
	isPtr := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.SelectorExpr:
			p, ok := x.X.(*ast.Ident)
			return ok && p.Name == pkg && x.Sel.Name == typ
		case *ast.Ident:
			return inPkg && x.Name == typ
		}
		return false
	}
	var sites []keptSite
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				if isPtr(fld.Type) {
					sites = append(sites, keptSite{fld.Pos(), "struct field"})
				}
			}
		case *ast.ArrayType:
			if isPtr(n.Elt) {
				what := "array element"
				if n.Len == nil {
					what = "slice element"
				}
				sites = append(sites, keptSite{n.Pos(), what})
			}
		case *ast.MapType:
			if isPtr(n.Value) {
				sites = append(sites, keptSite{n.Pos(), "map value"})
			}
		case *ast.ChanType:
			if isPtr(n.Value) {
				sites = append(sites, keptSite{n.Pos(), "channel element"})
			}
		}
		return true
	})
	return sites
}
