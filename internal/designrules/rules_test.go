// Package designrules turns the repository's "one way to do X" rules
// into a test over the non-test Go files in internal/ and cmd/ (the
// unused-option rule also reads bench/, examples/ and the repository
// root for setters), using the standard library's parser only. Each rule reports violations as
// "<file>: <what>" strings; allow_test.go holds the rule declarations
// and the allowlists, which may only shrink.
package designrules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the import path prefix of this repository's packages.
const module = "repro/"

// srcFile is one parsed Go file; path and dir are slash-separated and
// relative to the repository root.
type srcFile struct {
	path, dir string
	ast       *ast.File
}

// loadTree parses every non-test Go file under root's tops, skipping
// testdata; the top "." stands for root's own files, not its subtrees.
func loadTree(t *testing.T, root string, tops ...string) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for _, top := range tops {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || top == "." && p != filepath.Join(root, top) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			files = append(files, srcFile{path: rel, dir: filepath.ToSlash(filepath.Dir(rel)), ast: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// contextTypes reports every named type that declares all four
// context.Context methods: a hand-rolled context. Deadlines and
// cancellation come from the standard library's context package.
func contextTypes(files []srcFile) []string {
	type key struct{ dir, typ string }
	methods := make(map[key]map[string]bool)
	declared := make(map[key]string) // the file holding the first method
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			switch fn.Name.Name {
			case "Deadline", "Done", "Err", "Value":
			default:
				continue
			}
			_, typ := typeRef(fn.Recv.List[0].Type)
			k := key{f.dir, typ}
			if methods[k] == nil {
				methods[k] = make(map[string]bool)
				declared[k] = f.path
			}
			methods[k][fn.Name.Name] = true
		}
	}
	var out []string
	for k, m := range methods {
		if len(m) == 4 {
			out = append(out, declared[k]+": "+k.typ)
		}
	}
	sort.Strings(out)
	return out
}

// typeRef returns the package qualifier ("" for none) and the name of
// the type T, *T, T[...] or x.T, two empty strings for another expression.
func typeRef(expr ast.Expr) (pkg, name string) {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return "", e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				return x.Name, e.Sel.Name
			}
			return "", ""
		default:
			return "", ""
		}
	}
}

// upwardImports reports every import from a lower-layer package of a
// package in (or below) an upper layer.
func upwardImports(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if !contains(lowerLayers, f.dir) {
			continue
		}
		for _, imp := range f.ast.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, module) {
				continue
			}
			rel := strings.TrimPrefix(path, module)
			for _, up := range upperLayers {
				if rel == up || strings.HasPrefix(rel, up+"/") {
					out = append(out, f.path+": imports "+path)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// importers reports every file importing the package at path.
func importers(files []srcFile, path string) []string {
	var out []string
	for _, f := range files {
		for _, imp := range f.ast.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
				out = append(out, f.path+": imports "+path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// uses reports, once per file, every selector on the package at path
// naming one of names, under whatever name the file imports it.
func uses(files []srcFile, path string, names ...string) []string {
	return usesMatching(files, path, func(name string) bool { return contains(names, name) })
}

// usesMatching is uses for the names match accepts.
func usesMatching(files []srcFile, path string, match func(string) bool) []string {
	base := path[strings.LastIndexByte(path, '/')+1:]
	seen := make(map[string]bool)
	var out []string
	for _, f := range files {
		pkg := importName(f, path)
		if pkg == "" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !match(sel.Sel.Name) {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				if v := f.path + ": uses " + base + "." + sel.Sel.Name; !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// except returns the files for which skip is false.
func except(files []srcFile, skip func(srcFile) bool) []srcFile {
	var out []srcFile
	for _, f := range files {
		if !skip(f) {
			out = append(out, f)
		}
	}
	return out
}

// varintReaders reports every use of the standard library's varint
// readers outside the packages allowed them: elsewhere, protocol.Cursor
// reads varints.
func varintReaders(files []srcFile) []string {
	files = except(files, func(f srcFile) bool { return contains(varintReaderPackages, f.dir) })
	return uses(files, "encoding/binary", "Uvarint", "Varint", "ReadUvarint", "ReadVarint")
}

// yields reports every runtime.Gosched outside the files allowed one: a
// goroutine hands its processor over only where a handoff's edge waits
// for the flusher it woke.
func yields(files []srcFile) []string {
	return uses(except(files, func(f srcFile) bool { return contains(goschedFiles, f.path) }), "runtime", "Gosched")
}

// jsonFrames reports every call of protocol's JSON frame writer and reader:
// the request/response wires send binary bodies (WriteFrameBody,
// ReadFrameBody).
func jsonFrames(files []srcFile) []string {
	return uses(files, "repro/internal/protocol", "WriteFrame", "ReadFrame")
}

// rootContexts reports every context.Background and context.TODO in a
// library package: a root context belongs to a main package or the
// daemon runtime, and library code takes its caller's.
func rootContexts(files []srcFile) []string {
	files = except(files, func(f srcFile) bool { return f.ast.Name.Name == "main" || contains(rootContextPackages, f.dir) })
	return uses(files, "context", "Background", "TODO")
}

// tcpLifecycles reports, outside the packages allowed them, every use of
// net's dialers and listeners (net.Dial*, net.Dialer, net.Listen*; the
// net.Listener type is not one) and, once per file, every argument-less
// Accept call: rpc.Server is the one accept loop and rpc.ClientConn the
// one client connection. Without type checking, the rule takes any
// x.Accept() for a listener's.
func tcpLifecycles(files []srcFile) []string {
	files = except(files, func(f srcFile) bool { return contains(tcpLifecyclePackages, f.dir) })
	out := usesMatching(files, "net", func(name string) bool {
		return strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") && name != "Listener"
	})
	for _, f := range files {
		found := false
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return !found
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Accept" {
				out = append(out, f.path+": calls Accept()")
				found = true
			}
			return !found
		})
	}
	sort.Strings(out)
	return out
}

// importName returns the name f imports path under, "" when it does not.
func importName(f srcFile, path string) string {
	for _, imp := range f.ast.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndexByte(path, '/')+1:]
		}
	}
	return ""
}

// truncations reports, once per file, every use of os.Truncate and of a
// Truncate method in a file importing os outside the packages allowed
// them: a log shrinks only where recordlog cuts a torn tail. Without type
// checking, the rule takes any x.Truncate in such a file, x not a package,
// for (*os.File).Truncate.
func truncations(files []srcFile) []string {
	var out []string
	for _, f := range files {
		osName := importName(f, "os")
		if osName == "" || contains(truncatePackages, f.dir) {
			continue
		}
		packages := make(map[string]bool)
		for _, imp := range f.ast.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				packages[importName(f, p)] = true
			}
		}
		seen := make(map[string]bool)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Truncate" {
				return true
			}
			v := f.path + ": uses (*os.File).Truncate"
			if x, ok := sel.X.(*ast.Ident); ok && packages[x.Name] {
				if x.Name != osName {
					return true
				}
				v = f.path + ": uses os.Truncate"
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// typeName is a type: its package directory ("." for the root) and name.
type typeName struct{ dir, name string }

// optionField is one exported field of an exported *Config or *Options
// struct.
type optionField struct {
	typeName
	field string
}

// modulePackage returns the directory of the module package f imports
// under the name x ("." for the root package), "" for none.
func modulePackage(f srcFile, x string) string {
	for _, imp := range f.ast.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		switch {
		case err != nil || importName(f, p) != x:
		case p+"/" == module:
			return "."
		case strings.HasPrefix(p, module):
			return strings.TrimPrefix(p, module)
		}
	}
	return ""
}

// unsetOptions reports every exported field of an exported *Config or
// *Options struct declared in decls under internal/ that no file in
// setters sets outside a defaults function (withDefaults, applyDefaults,
// Default*): an option exists only when a caller sets it. A keyed
// composite literal of the struct's type sets its keys: T{ in the
// declaring package, x.T{ through an import of it or of an alias of it
// (type A = x.T), and an element of a slice or map of T with the type
// elided. An assignment v.F = and a flag binding &v.F set every field
// named F, whatever v's type, so the rule reports a lower bound of the
// unset fields.
func unsetOptions(decls, setters []srcFile) []string {
	declared := make(map[optionField]string)
	for _, f := range decls {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							declared[optionField{typeName{f.dir, name}, id.Name}] = f.path
						}
					}
				}
			}
		}
	}

	aliases := make(map[typeName]typeName)
	// typeOf resolves a type expression in f to the module type it
	// denotes; the dir of any other type is "".
	typeOf := func(f srcFile, expr ast.Expr) typeName {
		pkg, name := typeRef(expr)
		t := typeName{f.dir, name}
		if pkg != "" {
			t.dir = modulePackage(f, pkg)
		}
		if to, ok := aliases[t]; ok {
			return to
		}
		return t
	}
	for _, f := range setters {
		for _, decl := range f.ast.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					if ts := spec.(*ast.TypeSpec); ts.Assign.IsValid() {
						aliases[typeName{f.dir, ts.Name.Name}] = typeOf(f, ts.Type)
					}
				}
			}
		}
	}

	set := make(map[optionField]bool)
	setByName := make(map[string]bool)
	markKeys := func(lit *ast.CompositeLit, t typeName) {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					set[optionField{t, key.Name}] = true
				}
			}
		}
	}
	for _, f := range setters {
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if n := fn.Name.Name; n == "withDefaults" || n == "applyDefaults" || strings.HasPrefix(n, "Default") {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if n.Type == nil {
						return true
					}
					markKeys(n, typeOf(f, n.Type))
					var elem ast.Expr
					switch t := n.Type.(type) {
					case *ast.ArrayType:
						elem = t.Elt
					case *ast.MapType:
						elem = t.Value
					default:
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							elt = kv.Value
						}
						if u, ok := elt.(*ast.UnaryExpr); ok {
							elt = u.X
						}
						if lit, ok := elt.(*ast.CompositeLit); ok && lit.Type == nil {
							markKeys(lit, typeOf(f, elem))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							setByName[sel.Sel.Name] = true
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						setByName[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	var out []string
	for fd, path := range declared {
		if !set[fd] && !setByName[fd.field] {
			out = append(out, path+": "+fd.name+"."+fd.field)
		}
	}
	sort.Strings(out)
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// check fails t for every violation not on allow, and for every allow
// entry that no longer matches a violation.
func check(t *testing.T, rule string, violations []string, allow map[string]bool) {
	t.Helper()
	seen := make(map[string]bool)
	for _, v := range violations {
		seen[v] = true
		if !allow[v] {
			t.Errorf("%s: %s", rule, v)
		}
	}
	for v := range allow {
		if !seen[v] {
			t.Errorf("%s: stale allowlist entry %q: delete it from allow_test.go", rule, v)
		}
	}
}

func TestDesignRules(t *testing.T) {
	root := filepath.Join("..", "..")
	files := loadTree(t, root, "internal", "cmd")
	if len(files) == 0 {
		t.Fatal("no Go files found under internal/ and cmd/")
	}
	check(t, "no hand-rolled context.Context", contextTypes(files), contextTypeAllow)
	check(t, "lower layers import no upper layer", upwardImports(files), layerImportAllow)
	check(t, "no new encoding/json importer", importers(files, "encoding/json"), jsonImportAllow)
	check(t, "one container/list importer", importers(files, "container/list"), listImportAllow)
	check(t, "one varint reader", varintReaders(files), varintReaderAllow)
	check(t, "one truncation site", truncations(files), truncateAllow)
	check(t, "one processor yield", yields(files), goschedAllow)
	check(t, "root contexts only in mains and the daemon runtime", rootContexts(files), rootContextAllow)
	check(t, "no JSON frames on the request/response wires", jsonFrames(files), jsonFrameAllow)
	check(t, "one TCP lifecycle", tcpLifecycles(files), tcpLifecycleAllow)

	setters := append(loadTree(t, root, "bench", "examples", "."), files...)
	allow := make(map[string]bool)
	for entry, reason := range unsetOptionAllow {
		if reason == "" {
			t.Errorf("an option set by no caller: allowlist entry %q gives no reason", entry)
		}
		allow[entry] = true
	}
	check(t, "an option set by no caller", unsetOptions(files, setters), allow)
}

// parseFile parses src as the file at path, for planted violations.
func parseFile(t *testing.T, path, src string) srcFile {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return srcFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), ast: f}
}

func TestDesignRulesCatchPlantedViolations(t *testing.T) {
	// A lazy context split over two files of one package still counts;
	// a type with only some of the methods does not.
	lazy := []srcFile{
		parseFile(t, "internal/rpc/lazy.go", `package rpc
type lazyCtx struct{}
func (c *lazyCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *lazyCtx) Done() <-chan struct{}       { return nil }`),
		parseFile(t, "internal/rpc/lazy_err.go", `package rpc
func (c lazyCtx) Err() error       { return nil }
func (c lazyCtx) Value(any) any    { return nil }
type partial struct{}
func (partial) Err() error         { return nil }
func (partial) Done() <-chan struct{} { return nil }`),
	}
	if got := contextTypes(lazy); len(got) != 1 || got[0] != "internal/rpc/lazy.go: lazyCtx" {
		t.Errorf("context rule on a planted context = %q, want the lazyCtx type", got)
	}

	upward := []srcFile{
		parseFile(t, "internal/transport/up.go", `package transport
import (
	"context"
	"repro/internal/rpc"
	"repro/internal/trajstore"
	"repro/internal/core/sub"
)`),
		// The same import from an upper layer is fine.
		parseFile(t, "internal/camnode/ok.go", `package camnode
import "repro/internal/trajstore"`),
	}
	want := []string{
		"internal/transport/up.go: imports repro/internal/core/sub",
		"internal/transport/up.go: imports repro/internal/trajstore",
	}
	if got := upwardImports(upward); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("layering rule on planted imports = %q, want %q", got, want)
	}

	// A grouped and a renamed import both count; a path that only
	// contains the name does not.
	imports := []srcFile{
		parseFile(t, "internal/trajstore/wire.go", `package trajstore
import (
	"context"
	js "encoding/json"
	"container/list"
)`),
		parseFile(t, "internal/protocol/near.go", `package protocol
import "repro/internal/encoding/json"`),
	}
	for _, c := range []struct{ path, want string }{
		{"encoding/json", "internal/trajstore/wire.go: imports encoding/json"},
		{"container/list", "internal/trajstore/wire.go: imports container/list"},
	} {
		if got := importers(imports, c.path); len(got) != 1 || got[0] != c.want {
			t.Errorf("import rule for %s on planted imports = %q, want [%q]", c.path, got, c.want)
		}
	}

	// A renamed import counts, once per function and file; a varint
	// writer, a reader in protocol and another package's Uvarint do not.
	varints := []srcFile{
		parseFile(t, "internal/trajstore/answer.go", `package trajstore
import bin "encoding/binary"
func f(b []byte) {
	bin.Uvarint(b)
	bin.Uvarint(b[1:])
	read := bin.ReadVarint
	_ = bin.AppendUvarint(b, 1)
}`),
		parseFile(t, "internal/protocol/codec.go", `package protocol
import "encoding/binary"
func f(b []byte) { binary.Varint(b) }`),
		parseFile(t, "internal/fleet/near.go", `package fleet
import "repro/internal/binary"
func f(b []byte) { binary.Uvarint(b) }`),
	}
	want = []string{
		"internal/trajstore/answer.go: uses binary.ReadVarint",
		"internal/trajstore/answer.go: uses binary.Uvarint",
	}
	if got := varintReaders(varints); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("varint rule on planted reads = %q, want %q", got, want)
	}

	// A renamed os.Truncate and a file's Truncate method count, once per
	// file; recordlog, another package's Truncate and a method in a file
	// not importing os do not.
	truncates := []srcFile{
		parseFile(t, "internal/framestore/segment.go", `package framestore
import sys "os"
func f(path string, fh *sys.File) {
	sys.Truncate(path, 0)
	fh.Truncate(0)
	cut := fh.Truncate
	_ = sys.Remove(path)
}`),
		parseFile(t, "internal/recordlog/recordlog.go", `package recordlog
import "os"
func f(fh *os.File) { fh.Truncate(0) }`),
		parseFile(t, "internal/trajstore/near.go", `package trajstore
import ("os"; "repro/internal/disk")
func f() { disk.Truncate(os.Args[0]) }`),
		parseFile(t, "internal/obs/buf.go", `package obs
import "bytes"
func f(b *bytes.Buffer) { b.Truncate(0) }`),
	}
	want = []string{
		"internal/framestore/segment.go: uses (*os.File).Truncate",
		"internal/framestore/segment.go: uses os.Truncate",
	}
	if got := truncations(truncates); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("truncation rule on planted calls = %q, want %q", got, want)
	}

	// A renamed runtime.Gosched counts, once per file, and so does one in
	// batchwriter.go's package outside that file; batchwriter.go and
	// another runtime function do not.
	yieldsAt := []srcFile{
		parseFile(t, "internal/camnode/spin.go", `package camnode
import rt "runtime"
func f() {
	rt.Gosched()
	rt.Gosched()
	_ = rt.GOMAXPROCS(0)
}`),
		parseFile(t, "internal/trajstore/batchwriter.go", `package trajstore
import "runtime"
func f() { runtime.Gosched() }`),
		parseFile(t, "internal/trajstore/other.go", `package trajstore
import "runtime"
func f() { runtime.Gosched() }`),
	}
	want = []string{
		"internal/camnode/spin.go: uses runtime.Gosched",
		"internal/trajstore/other.go: uses runtime.Gosched",
	}
	if got := yields(yieldsAt); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("yield rule on planted calls = %q, want %q", got, want)
	}

	// A renamed import and TODO count; a derived context, a main package
	// and the daemon runtime do not.
	roots := []srcFile{
		parseFile(t, "internal/trajstore/root.go", `package trajstore
import ctxpkg "context"
func f() {
	ctx, cancel := ctxpkg.WithCancel(ctxpkg.TODO())
	_ = ctxpkg.Background()
}`),
		parseFile(t, "cmd/tool/main.go", `package main
import "context"
func main() { _ = context.Background() }`),
		parseFile(t, "internal/daemon/daemon.go", `package daemon
import "context"
func f() { _ = context.Background() }`),
	}
	want = []string{
		"internal/trajstore/root.go: uses context.Background",
		"internal/trajstore/root.go: uses context.TODO",
	}
	if got := rootContexts(roots); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("root-context rule on planted calls = %q, want %q", got, want)
	}

	// A renamed import counts, once per file per name; the binary frame
	// calls and protocol's own calls do not.
	frames := []srcFile{
		parseFile(t, "internal/trajstore/server.go", `package trajstore
import wire "repro/internal/protocol"
func f(c net.Conn, v any) {
	_ = wire.WriteFrame(c, v, 1)
	_ = wire.WriteFrame(c, v, 2)
	_ = wire.ReadFrame(c, &v, 1)
	_ = wire.WriteFrameBody(c, nil, 1)
	_, _ = wire.ReadFrameBody(c, 1)
}`),
		parseFile(t, "internal/protocol/protocol.go", `package protocol
func f(w io.Writer) { _ = WriteFrame(w, nil, 1) }`),
	}
	want = []string{
		"internal/trajstore/server.go: uses protocol.ReadFrame",
		"internal/trajstore/server.go: uses protocol.WriteFrame",
	}
	if got := jsonFrames(frames); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("JSON frame rule on planted calls = %q, want %q", got, want)
	}

	// A renamed net's dialers and listeners count, once per file per
	// name, and so does an Accept() on anything; rpc, an Accept with
	// arguments, net's other functions and http.Serve do not.
	lifecycles := []srcFile{
		parseFile(t, "internal/transport/tcp.go", `package transport
import nt "net"
func f(ln nt.Listener) {
	var d nt.Dialer
	c, _ := nt.DialTimeout("tcp", "a:1", 0)
	c, _ = nt.DialTimeout("tcp", "a:2", 0)
	l, _ := nt.Listen("tcp", ":0")
	for {
		c, _ := ln.Accept()
		c, _ = l.Accept()
	}
	_, _ = nt.SplitHostPort("a:1")
}`),
		parseFile(t, "internal/obs/http.go", `package obs
import ("net/http"; "repro/internal/rpc")
func f(ln net.Listener, q queue) {
	_ = http.Serve(ln, nil)
	q.Accept(1)
}`),
		parseFile(t, "internal/rpc/server.go", `package rpc
import "net"
func f() {
	ln, _ := net.Listen("tcp", ":0")
	c, _ := ln.Accept()
	var d net.Dialer
}`),
	}
	want = []string{
		"internal/transport/tcp.go: calls Accept()",
		"internal/transport/tcp.go: uses net.DialTimeout",
		"internal/transport/tcp.go: uses net.Dialer",
		"internal/transport/tcp.go: uses net.Listen",
	}
	if got := tcpLifecycles(lifecycles); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("TCP lifecycle rule on planted calls = %q, want %q", got, want)
	}

	// Setting a field: a keyed literal of its type (in its package, through
	// a renamed import, through an alias, as an elided slice element), an
	// assignment or a flag binding of any field of its name. A setter in a
	// defaults function, a same-named type of another package and an
	// unexported field or type do not count.
	optionDecls := []srcFile{
		parseFile(t, "internal/reid/reid.go", `package reid
type PoolConfig struct {
	Local, Renamed, Aliased, Elided, Assigned, Bound int
	Unused, Defaulted                                int
	hidden                                           int
}
type poolConfig struct{ X int }
type Pool struct{ Size int }
func DefaultPoolConfig() PoolConfig { return PoolConfig{Unused: 1} }
func (c PoolConfig) withDefaults() PoolConfig { c.Defaulted = 1; return c }
func f() PoolConfig { return PoolConfig{Local: 1} }`),
		parseFile(t, "internal/core/core.go", `package core
type PoolConfig struct{ Other int }`),
	}
	optionSetters := append([]srcFile{
		parseFile(t, "api.go", `package coralpie
import "repro/internal/reid"
type Pool = reid.PoolConfig`),
		parseFile(t, "examples/quick/main.go", `package main
import cp "repro"
func main() { _ = cp.Pool{Aliased: 1} }`),
		parseFile(t, "cmd/tool/main.go", `package main
import (
	"flag"
	r "repro/internal/reid"
)
func main() {
	_ = r.PoolConfig{Renamed: 1}
	_ = []*r.PoolConfig{{Elided: 1}}
	_ = r.PoolConfig{Other: 1}
	var c r.PoolConfig
	c.Assigned = 1
	flag.IntVar(&c.Bound, "bound", 0, "")
}`),
	}, optionDecls...)
	want = []string{
		"internal/core/core.go: PoolConfig.Other",
		"internal/reid/reid.go: PoolConfig.Defaulted",
		"internal/reid/reid.go: PoolConfig.Unused",
	}
	if got := unsetOptions(optionDecls, optionSetters); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("option rule on planted fields = %q, want %q", got, want)
	}
}
