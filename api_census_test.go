package topobarrier_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
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
	"fabric.Fabric.TrueO":           "oracle: the ground truth probe and fabric tests hold measurements to",
	"fabric.Fabric.TrueL":           "oracle: the ground truth probe and fabric tests hold measurements to",
	"sched.Schedule.Lift":           "oracle: compose/reference_test.go's lift-and-merge composer",
	"sched.MergeEarly":              "oracle: compose/reference_test.go's lift-and-merge composer",
	"sched.Schedule.IsGroupBarrier": "oracle: the brute-force survivor check the certifier is tested and fuzzed against",
	"run.PlanFromOps":               "oracle: hand-built plans the CheckPlan tests feed the verifier",
	"mat.BoolFromRows":              "oracle: literal matrices for the kernel tests",
	"mat.PropagateSilencedInto":     "fault model: the dense reference the certifier's kernels are tested against",
	"sched.Schedule.Silence":        "fault model: crash-silenced schedules for the resilience tests",
	"sched.SymmetricDissemination":  "fault model: the 1-fault-resilient schedule of the certifier tests, the vet corpus, sched's resume tests and netmpi's killed-rank test",
	"run.Plan.Silenced":             "fault model: crash-silenced plans for the executor tests",
	"netmpi.Peer.LinkErr":           "fault latch the fail-fast transport tests read",
	"netmpi.EpochRunner.Swaps":      "epoch observer the hot-swap tests read",
	"netmpi.EpochRunner.Version":    "epoch observer the hot-swap and closed-loop tests read",
	"netmpi.EpochRunner.Plan":       "epoch observer the hot-swap tests read",
	"netmpi.Peer.Err":               "fault latch the transport and resilience tests read",
}

// TestNoExportedAPIOnlyTestsCall is the ratchet behind "one way in per stage":
// an exported top-level function or method under internal/ must be referenced
// from some non-test file of the module (cmd/, bench/, examples/, the root
// facade or internal/ itself), or carry a reason in censusAllow. References
// are resolved by type: the module's non-test packages are type-checked, and
// a method counts as used only through a selector that resolves to it (an
// instantiation of a generic type's method counts for the method it was
// instantiated from), not through another type's method of the same name. A
// method that implements a method of an interface declared in the module or
// in a standard-library package the module imports is exempt: it is reached
// through that interface.
func TestNoExportedAPIOnlyTestsCall(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable: the standard library's export data is read through it")
	}
	files, info, pkgs := typeCheckModule(t)

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	// The interfaces a method may be reached through: every interface type
	// the module writes (declared or literal, as in a type assertion) and
	// every package-level interface of the standard-library packages it
	// imports.
	var ifaces []*types.Interface
	keep := func(typ types.Type) {
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				keep(info.Types[it].Type)
			}
			return true
		})
	}
	scanned := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, q := range p.Imports() {
			if scanned[q] || strings.HasPrefix(q.Path(), "topobarrier") {
				continue
			}
			scanned[q] = true
			for _, name := range q.Scope().Names() {
				if tn, ok := q.Scope().Lookup(name).(*types.TypeName); ok {
					keep(tn.Type())
				}
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if n, ok := recv.(*types.Named); !ok || n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	seen := map[string]bool{}
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
			fn := info.Defs[fd.Name].(*types.Func)
			key, ok := dir+"."+fd.Name.Name, used[fn]
			if recv := fn.Signature().Recv(); recv != nil {
				rt := recv.Type()
				if ptr, isPtr := rt.(*types.Pointer); isPtr {
					rt = ptr.Elem()
				}
				tn := rt.(*types.Named).Obj()
				if !tn.Exported() {
					continue // unexported receiver: reachable only through an interface
				}
				key, ok = dir+"."+tn.Name()+"."+fd.Name.Name, ok || viaInterface(fn)
			}
			seen[key] = true
			switch _, allowed := censusAllow[key]; {
			case !ok && !allowed:
				dead = append(dead, key)
			case ok && allowed:
				t.Errorf("censusAllow lists %s, but non-test code references it: drop the entry", key)
			}
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

// typeCheckModule type-checks the module's non-test packages, each once and
// after the module packages it imports, with the files the default build
// context selects (one of internal/perftest's race_on.go and race_off.go).
// The standard library comes from its export data (importer.Default). It
// returns the checked files by slash path, one Info for all of them, and the
// packages.
func typeCheckModule(t *testing.T) (map[string]*ast.File, *types.Info, []*types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	all := parseModuleFiles(t, fset)
	files := map[string]*ast.File{}
	byPath := map[string][]*ast.File{} // import path → files
	for path, f := range all {
		dir, name := filepath.Split(filepath.FromSlash(path))
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue
		}
		imp := "topobarrier"
		if d := filepath.ToSlash(filepath.Dir(path)); d != "." {
			imp += "/" + d
		}
		files[path] = f
		byPath[imp] = append(byPath[imp], f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		fs, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		sort.Slice(fs, func(i, j int) bool { return fset.File(fs[i].Pos()).Name() < fset.File(fs[j].Pos()).Name() })
		p, err := (&types.Config{Importer: imp}).Check(path, fset, fs, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var pkgs []*types.Package
	for _, path := range paths {
		p, err := imp.Import(path)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return files, info, pkgs
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseModule parses every non-test Go file of the module, keyed by its slash
// path relative to the module root; hidden and testdata directories are
// skipped.
func parseModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	return parseModuleFiles(t, token.NewFileSet())
}

// parseModuleFiles is parseModule into a given file set.
func parseModuleFiles(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	t.Helper()
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
const optionFields = 54

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

// optionFieldAllow lists the option fields no non-test code sets, each with
// the reason it stays a knob.
var optionFieldAllow = map[string]string{
	"search.AnnealOptions.Restarts":        "the search goldens pin 1-, 3- and 8-restart results",
	"analyze.ResilienceOptions.MaxSubsets": "tests force the pruned certifier at small P, and bench/ builds the struct",
	"fabric.Params.DirectionSkew":          "the asymmetric fabric TestTuneOnAsymmetricProfile tunes on",
	"core.Options.CertifyK":                "the tuner's k-fault gate; core's tests and TestCertifyKGatesTheSwap, through retune.Options.Tune, turn it; no command sets it",
}

// TestOptionFieldsSetOutsideTests is the census's other half: a knob that
// only tests turn is no knob. Every exported field of the structs
// TestOptionFieldCensus counts must be set in some non-test file — by a
// keyed composite literal of its struct (through an alias too, and with the
// type elided in a slice or map literal), or by an assignment to a selector
// of its name outside the methods of its own struct, so withDefaults filling
// in a zero does not count — or carry its reason in optionFieldAllow.
func TestOptionFieldsSetOutsideTests(t *testing.T) {
	files := parseModule(t)
	pkgOf := func(path string) string {
		if d := filepath.ToSlash(filepath.Dir(path)); d != "." {
			return strings.TrimPrefix(d, "internal/")
		}
		return "topobarrier"
	}
	importsOf := func(f *ast.File) map[string]string { // local name → package key
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "topobarrier/") {
				continue
			}
			d := strings.TrimPrefix(strings.TrimPrefix(p, "topobarrier/"), "internal/")
			local := d[strings.LastIndex(d, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = d
		}
		return imports
	}
	typeKey := func(e ast.Expr, pkg string, imports map[string]string) string {
		switch e := e.(type) {
		case *ast.Ident:
			return pkg + "." + e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return imports[x.Name] + "." + e.Sel.Name
			}
		}
		return ""
	}

	fields := map[string][]string{} // "pkg.Type" → exported field names
	alias := map[string]string{}    // "pkg.Alias" → "pkg.Type"
	for path, f := range files {
		pkg, imports := pkgOf(path), importsOf(f)
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if ts.Assign.IsValid() {
				alias[pkg+"."+ts.Name.Name] = typeKey(ts.Type, pkg, imports)
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !strings.HasPrefix(path, "internal/") || !ts.Name.IsExported() ||
				!(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Params")) {
				return true
			}
			key := pkg + "." + ts.Name.Name
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						fields[key] = append(fields[key], name.Name)
					}
				}
			}
			return true
		})
	}
	resolve := func(key string) string {
		for i := 0; i < 8 && alias[key] != ""; i++ {
			key = alias[key]
		}
		return key
	}

	set := map[string]bool{}                 // "pkg.Type.Field" set by a literal or a typed assignment
	assigned := map[string]map[string]bool{} // field name → methods' receiver types ("" for a function) assigning it on a variable of unknown type
	for path, f := range files {
		pkg, imports := pkgOf(path), importsOf(f)
		// literal records the keys of cl, a literal of type typ, and hands
		// its element type to the elements whose type is elided.
		var literal func(cl *ast.CompositeLit, typ ast.Expr)
		literal = func(cl *ast.CompositeLit, typ ast.Expr) {
			var elem ast.Expr
			switch typ := typ.(type) {
			case *ast.ArrayType:
				elem = typ.Elt
			case *ast.MapType:
				elem = typ.Value
			default:
				key := resolve(typeKey(typ, pkg, imports))
				for _, e := range cl.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[key+"."+id.Name] = true
						}
					}
				}
			}
			if star, ok := elem.(*ast.StarExpr); ok {
				elem = star.X
			}
			for _, e := range cl.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = u.X
				}
				if sub, ok := e.(*ast.CompositeLit); ok && sub.Type == nil && elem != nil {
					literal(sub, elem)
				}
			}
		}
		for _, d := range f.Decls {
			// vars holds the types of the declaration's variables that
			// syntax alone gives: parameters, `var x T` and `x := T{…}`.
			recv, vars := "", map[string]string{}
			typeOf := func(typ ast.Expr) string {
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				return resolve(typeKey(typ, pkg, imports))
			}
			declare := func(names []*ast.Ident, typ ast.Expr) {
				for _, id := range names {
					vars[id.Name] = typeOf(typ)
				}
			}
			if fd, ok := d.(*ast.FuncDecl); ok {
				for _, field := range fd.Type.Params.List {
					declare(field.Names, field.Type)
				}
				if fd.Recv != nil {
					declare(fd.Recv.List[0].Names, fd.Recv.List[0].Type)
					recv = typeOf(fd.Recv.List[0].Type)
				}
			}
			ast.Inspect(d, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.CompositeLit:
					if n.Type != nil {
						literal(n, n.Type)
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						declare(n.Names, n.Type)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
							rhs := n.Rhs[i]
							if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
								rhs = u.X
							}
							if cl, ok := rhs.(*ast.CompositeLit); ok && cl.Type != nil {
								declare([]*ast.Ident{id}, cl.Type)
							}
						}
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
							if vars[x.Name] != recv {
								set[vars[x.Name]+"."+sel.Sel.Name] = true
							}
							continue
						}
						if assigned[sel.Sel.Name] == nil {
							assigned[sel.Sel.Name] = map[string]bool{}
						}
						assigned[sel.Sel.Name][recv] = true
					}
				}
				return true
			})
		}
	}

	var unset []string
	declared := map[string]bool{}
	for typ, names := range fields {
		for _, name := range names {
			key := typ + "." + name
			byAssign := false
			for recv := range assigned[name] {
				byAssign = byAssign || recv != typ
			}
			switch _, allowed := optionFieldAllow[key]; {
			case !set[key] && !byAssign && !allowed:
				unset = append(unset, key)
			case (set[key] || byAssign) && allowed:
				t.Errorf("optionFieldAllow lists %s, but non-test code sets it: drop the entry", key)
			}
			declared[key] = true
		}
	}
	for k := range optionFieldAllow {
		if declared[k] {
			continue
		}
		t.Errorf("optionFieldAllow lists %s, which is not an option field", k)
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("internal/%s is set only by tests: delete the knob and fix its value, or add it to optionFieldAllow with the reason it stays", k)
	}
}

// cliFlags is the number of flag definitions across cmd/*/main.go. It is the
// ratchet against new knobs: a command line grows only by raising it, with
// the reason in the change; deleting a flag lowers it.
const cliFlags = 71

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
