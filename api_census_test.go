package topobarrier_test

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

// censusAllow lists the exported internal/ functions and methods no non-test
// file references, each with the reason it stays. Keys are "dir.Func" or
// "dir.Type.Method" with dir relative to internal/.
var censusAllow = map[string]string{
	"analyze.Severity.MarshalJSON":   "interface: json.Marshaler",
	"analyze.Severity.UnmarshalJSON": "interface: json.Unmarshaler",
	"profile.Profile.MarshalJSON":    "interface: json.Marshaler",
	"profile.Profile.UnmarshalJSON":  "interface: json.Unmarshaler",
	"sched.Schedule.MarshalJSON":     "interface: json.Marshaler",
	"sched.Schedule.UnmarshalJSON":   "interface: json.Unmarshaler",
	"fabric.Fabric.TrueO":            "oracle: the ground truth probe and fabric tests hold measurements to",
	"fabric.Fabric.TrueL":            "oracle: the ground truth probe and fabric tests hold measurements to",
	"sched.Schedule.Lift":            "oracle: compose/reference_test.go's lift-and-merge composer",
	"sched.MergeEarly":               "oracle: compose/reference_test.go's lift-and-merge composer",
	"sched.Schedule.IsGroupBarrier":  "oracle: the brute-force survivor check the certifier is tested and fuzzed against",
	"run.PlanFromOps":                "oracle: hand-built plans the CheckPlan tests feed the verifier",
	"mat.BoolFromRows":               "oracle: literal matrices for the kernel tests",
	"mat.PropagateSilencedInto":      "fault model: the dense reference the certifier's kernels are tested against",
	"sched.Schedule.Silence":         "fault model: crash-silenced schedules for the resilience tests",
	"run.Plan.Silenced":              "fault model: crash-silenced plans for the executor tests",
	"netmpi.Peer.LinkErr":            "fault latch the fail-fast transport tests read",
	"netmpi.EpochRunner.Swaps":       "epoch observer the hot-swap tests read",
}

// censusDecl is one exported function or method declared under internal/.
type censusDecl struct {
	key, dir, name string
	method         bool
}

// TestNoExportedAPIOnlyTestsCall is the ratchet behind "one way in per stage":
// an exported top-level function or method under internal/ must be referenced
// by name from some non-test file of the module (cmd/, bench/, examples/, the
// root facade or internal/ itself), or carry a reason in censusAllow. A
// function counts as referenced by an identifier in its own package or a
// pkg.Name selector elsewhere; a method by any .Name selector.
func TestNoExportedAPIOnlyTestsCall(t *testing.T) {
	files := parseModule(t)
	var decls []censusDecl
	declIdent := map[*ast.Ident]bool{}
	for path, f := range files {
		// Test support (internal/perftest) and build tools are exempt, as in
		// CI's orphan-package guard.
		if !strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "internal/perftest/") || f.Name.Name == "main" {
			continue
		}
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			declIdent[fd.Name] = true
			cd := censusDecl{key: dir + "." + fd.Name.Name, dir: dir, name: fd.Name.Name}
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok || !id.IsExported() {
					continue // unexported receiver: reachable only through an interface
				}
				cd.key, cd.method = dir+"."+id.Name+"."+fd.Name.Name, true
			}
			decls = append(decls, cd)
		}
	}

	usedFunc := map[string]bool{}   // "dir.Name"
	usedMethod := map[string]bool{} // "Name"
	for path, f := range files {
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		imports := map[string]string{} // local name → internal dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "topobarrier/internal/") {
				continue
			}
			d := strings.TrimPrefix(p, "topobarrier/internal/")
			local := d[strings.LastIndex(d, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = d
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				usedMethod[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if d, ok := imports[x.Name]; ok {
						usedFunc[d+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdent[n] {
					usedFunc[dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := usedFunc[d.dir+"."+d.name]
		if d.method {
			used = usedMethod[d.name]
		}
		switch _, allowed := censusAllow[d.key]; {
		case !used && !allowed:
			dead = append(dead, d.key)
		case used && allowed:
			t.Errorf("censusAllow lists %s, but non-test code references it: drop the entry", d.key)
		}
	}
	for k := range censusAllow {
		if !seen[k] {
			t.Errorf("censusAllow lists %s, which is not declared", k)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("internal/%s is exported but only tests reference it: delete it with its tests, or add it to censusAllow with the reason it stays", k)
	}
}

// parseModule parses every non-test Go file of the module, keyed by its slash
// path relative to the module root; hidden and testdata directories are
// skipped.
func parseModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// optionFields is the number of exported field declarations of the exported
// Options, Config and Params structs under internal/: the library's knobs,
// pinned the way cliFlags pins the command lines'. One declaration naming
// several fields (`Warmup, Iters int`) is one knob.
const optionFields = 62

// TestOptionFieldCensus counts the exported field declarations of every
// exported struct type under internal/ whose name ends in Options, Config or
// Params and holds the total to optionFields.
func TestOptionFieldCensus(t *testing.T) {
	total := 0
	for path, f := range parseModule(t) {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Params")) {
				return true
			}
			n := 0
			for _, field := range st.Fields.List {
				if len(field.Names) > 0 && field.Names[0].IsExported() {
					n++
				}
			}
			t.Logf("%s %s: %d fields", filepath.Dir(path), ts.Name.Name, n)
			total += n
			return true
		})
	}
	if total != optionFields {
		t.Errorf("internal/ option structs export %d fields, the census pins %d: lower optionFields after deleting a knob; raise it only with the reason a new one is needed", total, optionFields)
	}
}

// cliFlags is the number of flag definitions across cmd/*/main.go. It is the
// ratchet against new knobs: a command line grows only by raising it, with
// the reason in the change; deleting a flag lowers it.
const cliFlags = 85

// TestCLIFlagCensus counts the flag.* calls that define a flag in the
// commands' main files and holds the total to cliFlags.
func TestCLIFlagCensus(t *testing.T) {
	definers := map[string]bool{}
	for _, kind := range []string{"Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64"} {
		definers[kind], definers[kind+"Var"] = true, true
	}
	for _, name := range []string{"Var", "Func", "BoolFunc", "TextVar"} {
		definers[name] = true
	}
	total := 0
	for path, f := range parseModule(t) {
		if !strings.HasPrefix(path, "cmd/") || filepath.Base(path) != "main.go" {
			continue
		}
		n := 0
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" && definers[sel.Sel.Name] {
						n++
					}
				}
			}
			return true
		})
		t.Logf("%s: %d flags", path, n)
		total += n
	}
	if total != cliFlags {
		t.Errorf("cmd/ defines %d flags, the census pins %d: lower cliFlags after deleting a flag; raise it only with the reason a new knob is needed", total, cliFlags)
	}
}
