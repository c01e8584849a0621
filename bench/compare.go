package main

import (
	"fmt"
	"math"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	// verdictUnresolved: the run-to-run spread is wider than the bound, so
	// "unchanged" cannot be claimed either way.
	verdictUnresolved = "unresolved"
)

// row compares one end-to-end metric of one workload between two ledgers.
type row struct {
	workload, metric, unit string
	old, new               [3]float64 // first quartile, median, third quartile
	nOld, nNew             int
	bound                  float64
	worse                  float64 // share of the old median by which new is worse (negative: better)
	verdict                string
	note                   string
}

func (l *ledger) runsOf(workload string) []*result {
	var out []*result
	for _, r := range l.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// sameSeed reports whether every run of both sides used one seed.
func sameSeed(sides ...[]*result) bool {
	for _, runs := range sides {
		for _, r := range runs {
			if r.Seed != sides[0][0].Seed {
				return false
			}
		}
	}
	return true
}

// compareLedgers applies the choosing-metrics rule to every end-to-end
// metric of every workload present in both ledgers: medians and quartiles
// per side, the metric's own bound (exactBound for exact metrics when both
// sides ran one seed), "unresolved" when either side's spread exceeds the
// bound unless every new run beats every old run. With symmetric set, a
// difference beyond the bound in either direction counts — the A/A check.
func compareLedgers(old, new *ledger, symmetric bool) []row {
	var rows []row
	for _, w := range workloads {
		a, b := old.runsOf(w.name), new.runsOf(w.name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		same := sameSeed(a, b)
		for _, m := range endToEnd {
			xs, ys := valuesOf(a, m.Name), valuesOf(b, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			r := row{workload: w.name, metric: m.Name, unit: m.Unit, nOld: len(xs), nNew: len(ys), bound: m.Bound}
			if m.exact && same {
				r.bound = exactBound
			}
			r.old[0], r.old[1], r.old[2] = quartiles(xs)
			r.new[0], r.new[1], r.new[2] = quartiles(ys)
			r.worse = (r.new[1] - r.old[1]) / r.old[1]
			if m.Better == "higher" {
				r.worse = -r.worse
			}
			diff := r.worse
			if symmetric {
				diff = math.Abs(diff)
			}
			switch {
			case math.Max(spread(xs), spread(ys)) > r.bound && !allBetter(xs, ys, m.Better):
				r.verdict = verdictUnresolved
			case diff > r.bound:
				r.verdict = verdictRegression
			default:
				r.verdict = verdictOK
			}
			rows = append(rows, r)
		}
		// Failures and, for one seed, the identity of what was measured.
		rows = append(rows, failedRow(w.name, a, b))
		if same {
			rows = append(rows, textRow(w.name, "pinned-plan hash", a[0].PlanHash, b[0].PlanHash))
			if a[0].CertifyK1 != "" && b[0].CertifyK1 != "" {
				rows = append(rows, textRow(w.name, "CertifyK(k=1) verdict", a[0].CertifyK1, b[0].CertifyK1))
			}
		}
	}
	return rows
}

// allBetter reports whether every new run reads better than every old run.
func allBetter(old, new []float64, better string) bool {
	for _, y := range new {
		for _, x := range old {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// failedRow carries fail_ratio's rule: the new side must have no failures.
func failedRow(workload string, old, new []*result) row {
	count := func(runs []*result) (n int) {
		for _, r := range runs {
			n += r.Failed
		}
		return n
	}
	r := row{workload: workload, metric: "failed operations", verdict: verdictOK, note: fmt.Sprintf("%d -> %d", count(old), count(new))}
	if count(new) != 0 {
		r.verdict = verdictRegression
	}
	return r
}

func textRow(workload, what, old, new string) row {
	r := row{workload: workload, metric: what, verdict: verdictOK, note: old}
	if old != new {
		r.verdict, r.note = verdictRegression, old+" -> "+new
	}
	return r
}

// printComparison prints every row with its base and reports whether any
// regressed.
func printComparison(rows []row) (regressed bool) {
	unresolved := 0
	for _, r := range rows {
		switch r.verdict {
		case verdictRegression:
			regressed = true
		case verdictUnresolved:
			unresolved++
		}
		if r.note != "" {
			fmt.Printf("%-18s %-22s %-10s %s\n", r.workload, r.metric, r.verdict, r.note)
			continue
		}
		fmt.Printf("%-18s %-22s %-10s old %.6g [%.6g, %.6g] n=%d  new %.6g [%.6g, %.6g] n=%d %s  worse by %+.2f%% of old (bound %.1f%%)\n",
			r.workload, r.metric, r.verdict,
			r.old[1], r.old[0], r.old[2], r.nOld, r.new[1], r.new[0], r.new[2], r.nNew, r.unit,
			100*r.worse, 100*r.bound)
	}
	fmt.Printf("compare: %d rows, %d unresolved, regression: %v\n", len(rows), unresolved, regressed)
	return regressed
}

func compareFiles(oldPath, newPath string) int {
	var sides [2]*ledger
	for i, path := range []string{oldPath, newPath} {
		l, err := readLedger(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sides[i] = l
	}
	if printComparison(compareLedgers(sides[0], sides[1], false)) {
		return 1
	}
	return 0
}
