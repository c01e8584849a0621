package topobarrier_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topobarrier/internal/sched"
)

// corpusSchedules is every library schedule the repository can construct,
// paired with its expected 1-fault-resilience verdict. This is the corpus
// gate CI runs: the golden verdicts are mathematical facts about the
// schedules, so any change here is either a certifier regression or a
// deliberate algorithm change that must update this table.
func corpusSchedules(p int) []struct {
	s         *sched.Schedule
	resilient bool
} {
	kary := sched.KAryTreeArrival(p, 4)
	kary.Concat(kary.ReverseTransposed())
	doubled := sched.Dissemination(p)
	doubled.Concat(doubled)
	doubled.Name += "×2"
	return []struct {
		s         *sched.Schedule
		resilient bool
	}{
		// Every classic schedule routes some knowledge pair through a single
		// relay, so all of them fall to a 1-rank counterexample.
		{sched.Linear(p), false},
		{sched.Tree(p), false},
		{sched.Dissemination(p), false},
		{sched.RecursiveDoubling(p), false},
		{sched.Ring(p), false},
		{kary, false},
		// The redundant compositions survive any single silent rank.
		{sched.SymmetricDissemination(p), true},
		{doubled, true},
	}
}

// TestCLIBarrierVetCorpus is the corpus gate: barriervet -k 1 over every
// library schedule at P ∈ {4, 8, 16} must exit 0 (resilience
// counterexamples are warnings, not errors), report every schedule as a
// valid barrier, and reproduce the golden resilience verdict table.
func TestCLIBarrierVetCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the barriervet command over the schedule corpus")
	}
	dir := t.TempDir()
	args := []string{"./cmd/barriervet", "-json", "-k", "1"}
	type expectation struct {
		name      string
		resilient bool
	}
	var want []expectation
	for _, p := range []int{4, 8, 16} {
		for i, c := range corpusSchedules(p) {
			data, err := json.Marshal(c.s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("p%d-%02d.json", p, i))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, path)
			want = append(want, expectation{c.s.Name, c.resilient})
		}
	}

	out, code := runCmdExit(t, args...)
	if code != 0 {
		t.Fatalf("barriervet -k 1 exited %d over the library corpus:\n%s", code, out)
	}
	var reports []struct {
		Schedule string `json:"schedule"`
		Barrier  bool   `json:"barrier"`
		Findings []struct {
			Check    string `json:"check"`
			Severity string `json:"severity"`
			Ranks    []int  `json:"ranks"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("barriervet -json output does not parse: %v\n%s", err, out)
	}
	if len(reports) != len(want) {
		t.Fatalf("%d reports for %d schedules", len(reports), len(want))
	}
	for i, rep := range reports {
		if rep.Schedule != want[i].name {
			t.Errorf("report %d is for %q, want %q", i, rep.Schedule, want[i].name)
		}
		if !rep.Barrier {
			t.Errorf("%s: library schedule no longer satisfies Eq. 3", rep.Schedule)
		}
		var certified, cex bool
		for _, f := range rep.Findings {
			switch f.Check {
			case "resilience-certified":
				certified = true
			case "resilience-counterexample":
				cex = true
				if f.Severity != "warning" {
					t.Errorf("%s: counterexample severity %q, want warning", rep.Schedule, f.Severity)
				}
				if len(f.Ranks) != 1 {
					t.Errorf("%s: counterexample %v is not a minimal single rank", rep.Schedule, f.Ranks)
				}
			}
			if f.Severity == "error" {
				t.Errorf("%s: unexpected error finding %s", rep.Schedule, f.Check)
			}
		}
		if want[i].resilient && !certified {
			t.Errorf("%s: expected 1-fault certification, got none (regression in the certifier or the schedule)", rep.Schedule)
		}
		if !want[i].resilient && !cex {
			t.Errorf("%s: expected a 1-fault counterexample, got none", rep.Schedule)
		}
		if certified && cex {
			t.Errorf("%s: both certified and refuted", rep.Schedule)
		}
	}

	// Human-readable mode over a corpus subset must also exit 0 and render
	// the resilience findings.
	out, code = runCmdExit(t, append([]string{"./cmd/barriervet", "-k", "1", "-critical-edges"}, args[4:6]...)...)
	if code != 0 {
		t.Fatalf("barriervet text mode exited %d:\n%s", code, out)
	}
	for _, wantStr := range []string{"resilience", "BARRIER (Eq. 3 satisfied)"} {
		if !strings.Contains(out, wantStr) {
			t.Fatalf("text-mode corpus output missing %q:\n%s", wantStr, out)
		}
	}
}
