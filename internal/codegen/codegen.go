// Package codegen emits compilable Go source for a specialised barrier — the
// paper's final tuning step (§VII.C), where the discovered matrix sequence is
// hard-coded into a library function so that executing it involves no matrix
// scanning and no no-op stages.
//
// The generated function unrolls, per rank, the compiled run.Plan's stage
// list into one Stage call per stage — the same peers, in the same order and
// with the same tag offsets, as every other executor of the plan — against
// topobarrier.Stager, so the same source runs on the simulator (*Comm) and on
// a live mesh (*NetPeer). Its peer lists are package-level values, so a call
// allocates nothing, and the source is formatted with go/format so it is
// immediately reviewable and committable.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/token"
	"strings"
	"unicode"

	"topobarrier/internal/run"
	"topobarrier/internal/sched"
)

// Options controls the emitted source.
type Options struct {
	// Package is the package clause of the generated file; default "barrier".
	Package string
	// FuncName is the generated function's name; default is derived from the
	// schedule name, e.g. "BarrierHybrid22" for "hybrid(22)".
	FuncName string
}

// funcName derives an exported identifier from a schedule name:
// "hybrid(22)" → "BarrierHybrid22".
func funcName(name string) string {
	var b strings.Builder
	b.WriteString("Barrier")
	up := true
	for _, r := range name {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if up {
				r = unicode.ToUpper(r)
				up = false
			}
			b.WriteRune(r)
		default:
			up = true
		}
	}
	return b.String()
}

// Generate emits the specialised barrier source for the schedule's compiled
// plan. The schedule must be a verified barrier, and the package and function
// names Go identifiers (go/token.IsIdentifier, which excludes keywords).
func Generate(s *sched.Schedule, opts Options) ([]byte, error) {
	pl, err := run.NewPlan(s)
	if err != nil {
		return nil, err
	}
	if opts.Package == "" {
		opts.Package = "barrier"
	}
	if opts.FuncName == "" {
		opts.FuncName = funcName(s.Name)
	}
	if !token.IsIdentifier(opts.Package) || opts.Package == "_" {
		return nil, fmt.Errorf("codegen: invalid package name %q", opts.Package)
	}
	if !token.IsIdentifier(opts.FuncName) {
		return nil, fmt.Errorf("codegen: invalid function name %q", opts.FuncName)
	}

	// Every distinct peer list becomes one entry of a package-level table
	// named after the function: a slice literal at the call site would
	// escape through the Stager interface and allocate on every call.
	table := "peers" + opts.FuncName
	index := map[string]int{}
	var lists []string
	peers := func(ranks []int) string {
		if len(ranks) == 0 {
			return "nil"
		}
		list := strings.TrimPrefix(fmt.Sprintf("%#v", ranks), "[]int") // "{1, 2}"
		i, ok := index[list]
		if !ok {
			i, index[list], lists = len(lists), len(lists), append(lists, list)
		}
		return fmt.Sprintf("%s[%d]", table, i)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by topobarrier codegen from schedule %q. DO NOT EDIT.\n", s.Name)
	fmt.Fprintf(&b, "\npackage %s\n\n", opts.Package)
	fmt.Fprintf(&b, "import (\n\"fmt\"\n\ntopobarrier \"topobarrier\"\n)\n\n")
	fmt.Fprintf(&b, "// %s executes the barrier %q, specialised for exactly %d ranks.\n", opts.FuncName, s.Name, pl.P)
	fmt.Fprintf(&b, "// It runs on any topobarrier.Stager, a simulated rank or a live mesh peer.\n")
	fmt.Fprintf(&b, "// Every rank of the job must call it with the same tagBase; the function\n")
	fmt.Fprintf(&b, "// uses tags in [tagBase, tagBase+%d).\n", pl.Stages)
	fmt.Fprintf(&b, "func %s(c topobarrier.Stager, tagBase int) error {\n", opts.FuncName)
	fmt.Fprintf(&b, "\tif c.Size() != %d {\n", pl.P)
	fmt.Fprintf(&b, "\t\treturn fmt.Errorf(\"%s: compiled for %d ranks, called on %%d\", c.Size())\n", opts.FuncName, pl.P)
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "\tswitch c.Rank() {\n")
	for r := 0; r < pl.P; r++ {
		ops := pl.RankOps(r)
		if len(ops) == 0 {
			continue // only the rank of a 1-rank barrier has nothing to do
		}
		fmt.Fprintf(&b, "\tcase %d:\n", r)
		for _, op := range ops {
			fmt.Fprintf(&b, "\t\tif err := c.Stage(tagBase+%d, %s, %s); err != nil {\n\t\t\treturn err\n\t\t}\n",
				op.Stage, peers(op.Recvs), peers(op.Sends))
		}
	}
	fmt.Fprintf(&b, "\t}\n\treturn nil\n}\n")
	fmt.Fprintf(&b, "\n// %s holds %s's peer lists.\nvar %s = [...][]int{\n", table, opts.FuncName, table)
	for _, list := range lists {
		fmt.Fprintf(&b, "\t%s,\n", list)
	}
	fmt.Fprintf(&b, "}\n")

	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("codegen: generated source does not format (bug): %w\n%s", err, b.String())
	}
	return src, nil
}
