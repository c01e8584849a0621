package codegen

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/perftest"
	"topobarrier/internal/sched"
)

func TestGenerateLinear3Golden(t *testing.T) {
	src, err := Generate(sched.Linear(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `// Code generated by topobarrier codegen from schedule "linear(3)". DO NOT EDIT.

package barrier

import (
	"fmt"

	topobarrier "topobarrier"
)

// BarrierLinear3 executes the barrier "linear(3)", specialised for exactly 3 ranks.
// It runs on any topobarrier.Stager, a simulated rank or a live mesh peer.
// Every rank of the job must call it with the same tagBase; the function
// uses tags in [tagBase, tagBase+2).
func BarrierLinear3(c topobarrier.Stager, tagBase int) error {
	if c.Size() != 3 {
		return fmt.Errorf("BarrierLinear3: compiled for 3 ranks, called on %d", c.Size())
	}
	switch c.Rank() {
	case 0:
		if err := c.Stage(tagBase+0, peersBarrierLinear3[0], nil); err != nil {
			return err
		}
		if err := c.Stage(tagBase+1, nil, peersBarrierLinear3[0]); err != nil {
			return err
		}
	case 1:
		if err := c.Stage(tagBase+0, nil, peersBarrierLinear3[1]); err != nil {
			return err
		}
		if err := c.Stage(tagBase+1, peersBarrierLinear3[1], nil); err != nil {
			return err
		}
	case 2:
		if err := c.Stage(tagBase+0, nil, peersBarrierLinear3[1]); err != nil {
			return err
		}
		if err := c.Stage(tagBase+1, peersBarrierLinear3[1], nil); err != nil {
			return err
		}
	}
	return nil
}

// peersBarrierLinear3 holds BarrierLinear3's peer lists.
var peersBarrierLinear3 = [...][]int{
	{1, 2},
	{0},
}
`
	if string(src) != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", src, want)
	}
}

func TestGenerateRejectsNonBarrier(t *testing.T) {
	if _, err := Generate(sched.LinearArrival(4), Options{}); err == nil {
		t.Fatalf("non-barrier generated")
	}
}

// TestOptionsRespected: the names land in the source, and a name that is not
// a Go identifier is the caller's error, not a formatting failure.
func TestOptionsRespected(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want []string // in the source, or in the error when err is set
		err  bool
	}{
		{Options{Package: "main", FuncName: "MyBarrier"}, []string{"package main", "func MyBarrier(c topobarrier.Stager, tagBase int) error", `topobarrier "topobarrier"`}, false},
		{Options{}, []string{"package barrier", "func BarrierTree4("}, false},
		{Options{Package: "my-pkg"}, []string{`codegen: invalid package name "my-pkg"`}, true},
		{Options{Package: "_"}, []string{`codegen: invalid package name "_"`}, true},
		{Options{FuncName: "func"}, []string{`codegen: invalid function name "func"`}, true},
		{Options{FuncName: "2fast"}, []string{`codegen: invalid function name "2fast"`}, true},
	} {
		src, err := Generate(sched.Tree(4), c.opts)
		text := string(src)
		if c.err {
			if err == nil {
				t.Fatalf("%+v: generated\n%s", c.opts, src)
			}
			text = err.Error()
		} else if err != nil {
			t.Fatalf("%+v: %v", c.opts, err)
		}
		for _, want := range c.want {
			if !strings.Contains(text, want) {
				t.Errorf("%+v: missing %q in:\n%s", c.opts, want, text)
			}
		}
	}
}

func TestFuncNameDerivation(t *testing.T) {
	cases := map[string]string{
		"hybrid(22)":         "BarrierHybrid22",
		"tree(64)":           "BarrierTree64",
		"recursive-doubling": "BarrierRecursiveDoubling",
		"":                   "Barrier",
	}
	for in, want := range cases {
		if got := funcName(in); got != want {
			t.Errorf("funcName(%q) = %q, want %q", in, got, want)
		}
	}
}

// padded is linear(3) with an empty middle stage.
func padded() *sched.Schedule {
	lin := sched.Linear(3)
	s := sched.New("padded", 3)
	s.AddStage(lin.Stages[0])
	s.AddStage(mat.NewBool(3))
	s.AddStage(lin.Stages[1])
	return s
}

func TestNoOpStagesEliminated(t *testing.T) {
	// A schedule with an empty middle stage: the generated tag offsets must
	// be contiguous (stage elimination happened).
	src, err := Generate(padded(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(src), "tagBase+2,") {
		t.Fatalf("no-op stage not eliminated:\n%s", src)
	}
	if !strings.Contains(string(src), "tagBase+1,") {
		t.Fatalf("second real stage missing:\n%s", src)
	}
}

// TestGeneratedBarrierCompilesAndRuns is the end-to-end check: the emitted
// sources are compiled in one scratch module (with a replace directive
// pointing at this repository) together with a harness that runs each
// generated function on both venues. On the simulator it runs beside the
// schedule's compiled plan — the delay-injection validation, then a timed
// run — and the two must put the same messages on the wire at the same
// virtual times. On a live loopback mesh it runs 20 back-to-back calls, then
// the §VI check on wall time. On each venue a function compiled for another
// size must refuse to run. Under -race the harness is race-checked too.
func TestGeneratedBarrierCompilesAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a scratch module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"),
		"module gentest\n\ngo 1.22\n\nrequire topobarrier v0.0.0\n\nreplace topobarrier => "+repoRoot+"\n")
	var cases strings.Builder
	cases.WriteString("package main\n\nimport \"topobarrier\"\n\nvar cases = []struct {\n\tbarrier  func(topobarrier.Stager, int) error\n\tp        int\n\tschedule string\n}{\n")
	schedules := []*sched.Schedule{sched.Tree(8), sched.Dissemination(7), sched.Ring(5), padded()}
	for i, s := range schedules {
		src, err := Generate(s, Options{Package: "main"})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		noSliceLiteral(t, src, funcName(s.Name))
		writeFile(t, filepath.Join(dir, fmt.Sprintf("barrier%d.go", i)), string(src))
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&cases, "\t{%s, %d, `%s`},\n", funcName(s.Name), s.P, js)
	}
	cases.WriteString("}\n")
	writeFile(t, filepath.Join(dir, "cases.go"), cases.String())
	writeFile(t, filepath.Join(dir, "main.go"), harness)
	args := []string{"run", "."}
	if perftest.RaceEnabled {
		args = []string{"run", "-race", "."}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated module failed: %v\n%s", err, out)
	}
	for _, s := range schedules {
		if !strings.Contains(string(out), s.Name+": ") {
			t.Fatalf("no verdict for %s: %s", s.Name, out)
		}
	}
	t.Logf("%s", out)
}

// noSliceLiteral fails if the body of the generated function name holds a
// composite literal: a peer list built at the call site would escape through
// the Stager interface and allocate on every call.
func noSliceLiteral(t *testing.T, src []byte, name string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			found = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.CompositeLit); ok {
					t.Errorf("%s builds a literal in its body:\n%s", name, src)
				}
				return true
			})
		}
	}
	if !found {
		t.Fatalf("no function %s in:\n%s", name, src)
	}
}

// harness is the scratch module's main.go; cases.go lists the generated
// functions with their sizes and schedules.
const harness = `package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"topobarrier"
)

func main() {
	for i, c := range cases {
		var s topobarrier.Schedule
		if err := json.Unmarshal([]byte(c.schedule), &s); err != nil {
			fail(err)
		}
		pl, err := topobarrier.NewPlan(&s)
		if err != nil {
			fail(err)
		}
		generated, plan := deliveries(s.P, simulated(c.barrier)), deliveries(s.P, pl.Func())
		if !slices.Equal(generated, plan) {
			i := 0
			for i < len(generated) && i < len(plan) && generated[i] == plan[i] {
				i++
			}
			fail(fmt.Errorf("%s: %d deliveries from generated code, %d from the plan; first difference at %d:\n%v\n%v",
				s.Name, len(generated), len(plan), i, generated[i:min(i+1, len(generated))], plan[i:min(i+1, len(plan))]))
		}
		other := cases[(i+1)%len(cases)] // compiled for another size
		w := topobarrier.NewWorld(fabric(s.P))
		if _, err := w.Run(func(c *topobarrier.Comm) {
			if c.Rank() == 0 {
				misSized(s.Name+" on the simulator", other.barrier(c, 0), other.p)
			}
		}); err != nil {
			fail(err)
		}
		late := onMesh(s.Name, s.P, c.barrier, other.barrier, other.p)
		fmt.Printf("%s: %d identical deliveries; on the mesh no rank left before the entry %v late\n", s.Name, len(generated), late)
	}
}

// simulated adapts a generated barrier to the simulator's BarrierFunc.
func simulated(b func(topobarrier.Stager, int) error) topobarrier.BarrierFunc {
	return func(c *topobarrier.Comm, tagBase int) {
		if err := b(c, tagBase); err != nil {
			panic(err)
		}
	}
}

func fabric(p int) *topobarrier.Fabric {
	fab, err := topobarrier.NewFabric(topobarrier.QuadCluster(), topobarrier.RoundRobin{}, p, topobarrier.GigEParams(1))
	if err != nil {
		fail(err)
	}
	return fab
}

// deliveries validates b on a traced p-rank world, times it, and returns
// every message delivered, in delivery order.
func deliveries(p int, b topobarrier.BarrierFunc) []string {
	var evs []string
	w := topobarrier.NewWorld(fabric(p), topobarrier.WithTracer(func(e topobarrier.TraceEvent) {
		evs = append(evs, fmt.Sprintf("%d→%d tag %d %dB sent %x arrived %x", e.Src, e.Dst, e.Tag, e.Bytes, e.Sent, e.Arrived))
	}))
	if err := topobarrier.Validate(w, b, 0.5, nil); err != nil {
		fail(err)
	}
	if _, err := topobarrier.Measure(w, b, 2, 10); err != nil {
		fail(err)
	}
	return evs
}

// onMesh runs b on a p-rank loopback mesh: 20 back-to-back calls in
// alternating TagSpan windows, then the §VI check on wall time — the last
// rank enters 20 ms late and no rank may return before it entered — then a
// call of a barrier compiled for another size, which must refuse. It returns
// the delay.
func onMesh(name string, p int, b, other func(topobarrier.Stager, int) error, otherP int) time.Duration {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := range lns {
		ln, err := topobarrier.NetListen("127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	peers := make([]*topobarrier.NetPeer, p)
	all := func(f func(r int) error) {
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := range peers {
			wg.Add(1)
			go func() { defer wg.Done(); errs[r] = f(r) }()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				fail(fmt.Errorf("%s: mesh rank %d: %w", name, r, err))
			}
		}
	}
	all(func(r int) (err error) {
		peers[r], err = topobarrier.NetDial(r, addrs, lns[r], 10*time.Second)
		return err
	})
	defer func() {
		for r, pe := range peers {
			pe.Close()
			lns[r].Close()
		}
	}()
	for i := 0; i < 20; i++ {
		all(func(r int) error { return b(peers[r], (i%2)*topobarrier.TagSpan) })
	}
	const late = 20 * time.Millisecond
	var entered time.Time
	exits := make([]time.Time, p)
	all(func(r int) error {
		if r == p-1 {
			time.Sleep(late)
			entered = time.Now()
		}
		err := b(peers[r], 0)
		exits[r] = time.Now()
		return err
	})
	for r, x := range exits {
		if x.Before(entered) {
			fail(fmt.Errorf("%s: mesh rank %d returned %v before the late rank entered", name, r, entered.Sub(x)))
		}
	}
	misSized(name+" on the mesh", other(peers[0], 0), otherP)
	return late
}

// misSized fails unless err is a generated barrier's refusal to run on a
// world or mesh other than the compiled size.
func misSized(venue string, err error, compiled int) {
	want := fmt.Sprintf("compiled for %d ranks", compiled)
	if err == nil || !strings.Contains(err.Error(), want) {
		fail(fmt.Errorf("%s: mis-sized call returned %v, want %q", venue, err, want))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
`

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
