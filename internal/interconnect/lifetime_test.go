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
		for _, site := range keptMessagePointers(f) {
			t.Errorf("%s: %s of type *msg.Message outlives Handle; keep a msg.Message value", fset.Position(site.pos), site.what)
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
// every storage form it is meant to, and nothing else.
func TestKeptMessagePointersChecker(t *testing.T) {
	src := `package p
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
}
func g(m *msg.Message) *msg.Message { return m }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range keptMessagePointers(f) {
		got = append(got, s.what)
	}
	want := []string{"struct field", "slice element", "array element", "map value", "channel element", "slice element"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("flagged %q, want %q", got, want)
	}
}

type keptSite struct {
	pos  token.Pos
	what string
}

// keptMessagePointers returns the places in f that can store a
// *msg.Message beyond the call that received it.
func keptMessagePointers(f *ast.File) []keptSite {
	inMsg := f.Name.Name == "msg"
	isPtr := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.SelectorExpr:
			pkg, ok := x.X.(*ast.Ident)
			return ok && pkg.Name == "msg" && x.Sel.Name == "Message"
		case *ast.Ident:
			return inMsg && x.Name == "Message"
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
