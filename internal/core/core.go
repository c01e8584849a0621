// Package core assembles the paper's primary contribution into one pipeline:
// given a topological profile of a platform (§IV), it clusters the ranks by
// physical locality (§VII.A), greedily composes a hybrid barrier from
// component algorithms using the coupled cost model (§VII.B), verifies that
// the result globally synchronises (Eq. 3), and produces both an executable
// plan and hard-coded source for the specialised barrier (§VII.C).
package core

import (
	"fmt"

	"topobarrier/internal/analyze"
	"topobarrier/internal/codegen"
	"topobarrier/internal/compose"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
)

// Options configures the adaptive tuning pipeline. The zero value reproduces
// the paper's configuration: the linear/dissemination/tree component set,
// SSS clustering at 35 % sparseness with unbounded depth, and the
// first-stage-Eq.1 cost policy.
type Options struct {
	// Builders is the component algorithm set; nil selects the paper's three.
	Builders []sched.Builder
	// Clustering configures the SSS hierarchy construction.
	Clustering sss.Options
	// Policy selects the Eq. 1 / Eq. 2 weighting of predicted batch costs.
	Policy predict.CostPolicy
	// Refine, when positive, follows the greedy composition with that many
	// candidate evaluations of local-search refinement (§VIII future work),
	// seeded with the composed schedule (TuneFrom: the given one). A refined
	// schedule replaces the seed only when it prices cheaper and passes the
	// same barriervet gate; otherwise the seed stands. The pass is
	// deterministic for a fixed RefineSeed.
	Refine int
	// RefineSeed is the refinement search's randomness seed.
	RefineSeed uint64
	// RefineBatch, when above 1, makes the refinement search evaluate
	// mutations in best-of-RefineBatch batches (search.AnnealOptions
	// .BatchSize) — the large-P configuration, where each kept move should
	// be the pick of several cheap cluster-pruned proposals.
	RefineBatch int
	// Tracer, when non-nil, records one span per pipeline phase
	// (tune.profile, tune.compose, tune.vet, tune.refine) so a tuning run
	// can be inspected in chrome://tracing. Nil keeps every span a pointer
	// check.
	Tracer *telemetry.Tracer
	// Telemetry, when non-nil, is handed to the refinement search (its
	// candidate/accept/adoption counters) and receives the pipeline's
	// tune_predicted_cost_seconds gauge.
	Telemetry *telemetry.Registry
	// CertifyK, when positive, demands fault-resilience certification: the
	// vet pass runs the analyze.CertifyK prover and Tune fails when the tuned
	// schedule has a counterexample — a set of at most CertifyK ranks whose
	// silence breaks the barrier for the survivors. During refinement a
	// cheaper candidate with a counterexample is rejected the same way the
	// Error-finding gate rejects it, keeping the certified composition.
	CertifyK int
}

// Tuned is a specialised barrier produced for one profiled platform.
type Tuned struct {
	// Profile is the topological model the barrier was tuned for.
	Profile *profile.Profile
	// Tree is the locality hierarchy discovered by clustering.
	Tree *sss.Node
	// Result holds the seed — the composed schedule, its predicted cost and
	// the per-cluster decisions, or TuneFrom's schedule with none; refinement
	// leaves it as it was.
	Result *compose.Result
	// Search is the refinement search's outcome when Options.Refine is
	// positive, nil otherwise. Its schedule is the tuned barrier only when it
	// prices cheaper than the seed and passes the same vet gate.
	Search *search.Result
	// Report is the barriervet static analysis of the schedule and its
	// compiled plan; schedules with Error-severity findings never reach this
	// struct.
	Report *analyze.Report
	// Plan is the flattened executable form of the schedule.
	Plan *run.Plan

	schedule *sched.Schedule
	cost     float64
}

// PredictedCost returns the critical-path cost estimate of the tuned barrier.
func (t *Tuned) PredictedCost() float64 { return t.cost }

// Schedule returns the tuned signal pattern: the seed, or the refinement's
// result when that replaced it.
func (t *Tuned) Schedule() *sched.Schedule { return t.schedule }

// Func returns the barrier as an executable function.
func (t *Tuned) Func() run.Func { return t.Plan.Func() }

// GenerateSource emits hard-coded Go source for the tuned barrier.
func (t *Tuned) GenerateSource(opts codegen.Options) ([]byte, error) {
	return codegen.Generate(t.schedule, opts)
}

// Tune runs the adaptive construction against a profile.
func Tune(pf *profile.Profile, opts Options) (*Tuned, error) {
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	builders := opts.Builders
	if builders == nil {
		builders = sched.PaperBuilders()
	}
	pd := &predict.Predictor{Prof: pf, Policy: opts.Policy}
	composeSpan := opts.Tracer.Begin("tune.compose", -1, -1, -1)
	tree := sss.Tree(pf, opts.Clustering)
	res, err := compose.Hybrid(pd, tree, builders)
	composeSpan.End()
	if err != nil {
		return nil, err
	}
	return refine(pd, tree, res, opts)
}

// TuneFrom is Tune with a given seed schedule in place of the composition:
// the seed is vetted and, with opts.Refine, refined exactly as a composed
// schedule is (same clusters, policy and gate). The returned Result holds the
// seed with no per-cluster choices; Builders is unused.
func TuneFrom(pf *profile.Profile, seed *sched.Schedule, opts Options) (*Tuned, error) {
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pd := &predict.Predictor{Prof: pf, Policy: opts.Policy}
	return refine(pd, sss.Tree(pf, opts.Clustering), &compose.Result{Schedule: seed, PredictedCost: pd.Cost(seed)}, opts)
}

// refine vets the seed in res and, with opts.Refine, anneals from it.
func refine(pd *predict.Predictor, tree *sss.Node, res *compose.Result, opts Options) (*Tuned, error) {
	// analyze.Vet gates plan compilation and source emission: a composed
	// schedule it refuses is a composer bug, a given seed it refuses is the
	// caller's, and neither may execute. The report also rides along on the
	// Tuned value so callers can surface warnings and redundancy
	// opportunities.
	vet := func(s *sched.Schedule) (*run.Plan, *analyze.Report, error) {
		span := opts.Tracer.Begin("tune.vet", -1, -1, -1)
		defer span.End()
		return analyze.Vet(s, analyze.Options{Predictor: pd, CertifyK: opts.CertifyK})
	}
	plan, rep, err := vet(res.Schedule)
	if err != nil {
		return nil, fmt.Errorf("core: schedule %q fails vet: %w", res.Schedule.Name, err)
	}
	t := &Tuned{Profile: pd.Prof, Tree: tree, Result: res, Report: rep, Plan: plan, schedule: res.Schedule, cost: res.PredictedCost}
	if opts.Refine > 0 {
		refineSpan := opts.Tracer.Begin("tune.refine", -1, -1, -1)
		// The SSS leaf clusters that shaped the composition also prune the
		// refinement's proposal space (leaders are the leaf representatives,
		// Ranks[0] by construction). With fewer than two leaves the search
		// falls back to uniform proposals on its own.
		var clusters [][]int
		for _, leaf := range tree.Leaves() {
			clusters = append(clusters, leaf.Ranks)
		}
		sres, err := search.Anneal(pd, res.Schedule, search.AnnealOptions{
			Seed: opts.RefineSeed, Budget: opts.Refine,
			Clusters: clusters, BatchSize: opts.RefineBatch,
			Telemetry: opts.Telemetry,
		})
		refineSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: refinement search: %w", err)
		}
		t.Search = sres
		if sres.Cost < res.PredictedCost {
			// The refined schedule must clear the same gate as the seed; a
			// refusal keeps the seed instead of failing the pipeline, since a
			// verified fallback is in hand.
			if rplan, rrep, err := vet(sres.Schedule); err == nil {
				t.schedule, t.cost, t.Plan, t.Report = sres.Schedule, sres.Cost, rplan, rrep
			}
		}
	}
	opts.Telemetry.Gauge("tune_predicted_cost_seconds").Set(t.cost)
	return t, nil
}

// ProfileAndTune profiles the platform of a world with the given benchmark
// configuration and immediately tunes a barrier for it — the full §III
// pipeline in one call. The profile is also returned via the Tuned value for
// storage and re-use.
func ProfileAndTune(w *mpi.World, probeCfg probe.Config, opts Options) (*Tuned, error) {
	span := opts.Tracer.Begin("tune.profile", -1, -1, -1)
	pf, err := probe.Measure(w, probeCfg)
	span.End()
	if err != nil {
		return nil, err
	}
	return Tune(pf, opts)
}

// ProfileFingerprint is the profile-cache key of a simulated world: the
// fabric spec name, rank count, probe configuration, and a caller-supplied
// salt for conditions the spec does not encode (placement policy, noise
// seed).
func ProfileFingerprint(w *mpi.World, probeCfg probe.Config, salt string) profile.Fingerprint {
	return profile.FingerprintOf("sim", w.Fabric().Spec().Name,
		fmt.Sprintf("p=%d", w.Size()), probeCfg.Key(), salt)
}
