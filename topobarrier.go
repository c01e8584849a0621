// Package topobarrier is a Go reproduction of "Optimized Barriers for
// Heterogeneous Systems Using MPI" (Meyer & Elster, IPDPS 2011): a system
// that profiles the pairwise signal costs of a clustered SMP platform,
// represents barrier algorithms as sequences of boolean incidence matrices,
// couples the two models to predict barrier cost, and automatically composes
// topology-specialised hybrid barriers that outperform topology-neutral
// library implementations.
//
// Because Go has no MPI bindings and this module is self-contained, the
// physical cluster is replaced by a deterministic virtual-time runtime over
// a simulated heterogeneous fabric (see DESIGN.md for the substitution
// argument). Everything above the runtime — profiling, prediction,
// clustering, composition, code generation — is exactly the paper's method.
//
// The typical pipeline:
//
//	fab, _ := topobarrier.NewFabric(topobarrier.QuadCluster(), topobarrier.RoundRobin{}, 32, topobarrier.GigEParams(1))
//	world := topobarrier.NewWorld(fab)
//	prof, _ := topobarrier.MeasureProfile(world, topobarrier.DefaultProbe())
//	tuned, _ := topobarrier.Tune(prof, topobarrier.TuneOptions{})
//	m, _ := topobarrier.Measure(world, tuned.Func(), 10, 100)
//	once, _ := world.Run(tuned.Func().Programs(32)) // one barrier: every rank's step program
//	src, _ := tuned.GenerateSource(topobarrier.CodegenOptions{Package: "main"})
//
// A barrier is data: each rank's program of steps (Step: local work, then
// receives and synchronized sends under one tag), which the simulator runs
// as it stands and a real mesh runs one Stage call per step.
package topobarrier

import (
	"topobarrier/internal/baseline"
	"topobarrier/internal/codegen"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

// Machine description and placement (see internal/topo).
type (
	// Spec describes a cluster of identical SMP nodes.
	Spec = topo.Spec
	// Core identifies one core hierarchically.
	Core = topo.Core
	// LinkClass is the interconnect layer between two cores.
	LinkClass = topo.LinkClass
	// Placement maps ranks onto cores.
	Placement = topo.Placement
	// Block fills nodes one at a time.
	Block = topo.Block
	// RoundRobin cycles ranks across the allocated nodes.
	RoundRobin = topo.RoundRobin
	// Permutation pins ranks to explicit cores.
	Permutation = topo.Permutation
)

// Link classes, fastest to slowest.
const (
	Self        = topo.Self
	SharedCache = topo.SharedCache
	SameSocket  = topo.SameSocket
	CrossSocket = topo.CrossSocket
	CrossNode   = topo.CrossNode
)

// QuadCluster returns the paper's 8-node dual quad-core test system.
func QuadCluster() Spec { return topo.QuadCluster() }

// HexCluster returns the paper's 10-node dual hex-core test system.
func HexCluster() Spec { return topo.HexCluster() }

// SingleNode returns a one-node machine, as used for the Figure 9 profile.
func SingleNode(sockets, cores, cacheGroup int) Spec {
	return topo.SingleNode(sockets, cores, cacheGroup)
}

// Simulated hardware (see internal/fabric).
type (
	// Fabric is the ground-truth cost model of a placed job.
	Fabric = fabric.Fabric
	// FabricParams parameterises a fabric.
	FabricParams = fabric.Params
	// Link holds one link class's cost parameters.
	Link = fabric.Link
)

// GigEParams returns cost parameters calibrated for a commodity
// gigabit-ethernet cluster of SMP nodes.
func GigEParams(seed uint64) FabricParams { return fabric.GigEParams(seed) }

// NewFabric places p ranks on the machine and returns its cost oracle.
func NewFabric(spec Spec, pl Placement, p int, params FabricParams) (*Fabric, error) {
	return fabric.New(spec, pl, p, params)
}

// Message-passing runtime (see internal/mpi).
type (
	// World is a simulated P-rank job; World.Run runs one Program per rank.
	World = mpi.World
	// Step is one step of a rank program: local work, then receives and
	// synchronized sends under one tag, completing together.
	Step = mpi.Step
	// Program is one rank's part of a World.Run: its steps, repeated, and
	// where the run reports their completion times.
	Program = mpi.Program
	// TraceEvent records one delivered message.
	TraceEvent = mpi.TraceEvent
	// WorldOption configures a World.
	WorldOption = mpi.Option
)

// NewWorld wraps a placed fabric as a runnable job.
func NewWorld(fab *Fabric, opts ...WorldOption) *World { return mpi.NewWorld(fab, opts...) }

// WithCongestion enables NIC serialisation of cross-node messages.
func WithCongestion() WorldOption { return mpi.WithCongestion() }

// WithMaxEvents bounds the events a single run may execute.
func WithMaxEvents(n int) WorldOption { return mpi.WithMaxEvents(n) }

// WithTracer installs a per-delivery callback.
func WithTracer(fn func(TraceEvent)) WorldOption { return mpi.WithTracer(fn) }

// Profiling (see internal/probe and internal/profile).
type (
	// Profile is the measured topological model (O and L matrices).
	Profile = profile.Profile
	// ProbeConfig controls the profiling benchmark protocol.
	ProbeConfig = probe.Config
)

// DefaultProbe returns a light-weight profiling configuration.
func DefaultProbe() ProbeConfig { return probe.Default() }

// PaperProbe returns the paper's exact §IV.A protocol.
func PaperProbe() ProbeConfig { return probe.Paper() }

// MeasureProfile benchmarks the platform of a world into a profile.
func MeasureProfile(w *World, cfg ProbeConfig) (*Profile, error) { return probe.Measure(w, cfg) }

// LoadProfile reads a profile saved with Profile.Save.
func LoadProfile(path string) (*Profile, error) { return profile.Load(path) }

// HeatMap renders a cost matrix as shaded text (the paper's Figure 9).
func HeatMap(m *mat.Costs, title string) string { return profile.HeatMap(m, title) }

// Schedules and algorithms (see internal/sched).
type (
	// Schedule is a barrier signal pattern: one boolean incidence matrix per
	// stage.
	Schedule = sched.Schedule
	// Builder is one component of the composer: a name, an arrival phase
	// over n members, and whether a departure must follow at the root.
	Builder = sched.Builder
)

// Linear returns the 2-stage centralized barrier.
func Linear(p int) *Schedule { return sched.Linear(p) }

// Dissemination returns the ⌈log2 p⌉-stage dissemination barrier.
func Dissemination(p int) *Schedule { return sched.Dissemination(p) }

// Tree returns the 2·⌈log2 p⌉-stage binomial tree barrier.
func Tree(p int) *Schedule { return sched.Tree(p) }

// PaperBuilders returns the paper's three component algorithms.
func PaperBuilders() []Builder { return sched.PaperBuilders() }

// ExtendedBuilders adds this implementation's extension components.
func ExtendedBuilders() []Builder { return sched.ExtendedBuilders() }

// Prediction (see internal/predict).
type (
	// Predictor couples a profile to schedules (Eq. 1/2 + critical path).
	Predictor = predict.Predictor
	// CostPolicy selects when the ready-receiver cost form applies.
	CostPolicy = predict.CostPolicy
)

// Cost policies.
const (
	FirstStageEq1 = predict.FirstStageEq1
	AlwaysEq1     = predict.AlwaysEq1
)

// NewPredictor returns a predictor with the default policy.
func NewPredictor(pf *Profile) *Predictor { return predict.New(pf) }

// Clustering (see internal/sss).
type (
	// ClusterTree is the locality hierarchy discovered by SSS clustering.
	ClusterTree = sss.Node
	// ClusterOptions configures the clustering.
	ClusterOptions = sss.Options
)

// ClusterRanks builds the recursive topology hierarchy of a profile.
func ClusterRanks(pf *Profile, opts ClusterOptions) *ClusterTree { return sss.Tree(pf, opts) }

// Execution and measurement (see internal/run).
type (
	// BarrierFunc is an executable barrier implementation: a rank's step
	// program for one barrier.
	BarrierFunc = run.Func
	// Plan is a schedule compiled to per-rank stage lists.
	Plan = run.Plan
	// Measurement summarises a timed barrier run.
	Measurement = run.Measurement
	// Stager is the one per-stage executor contract: *NetPeer meets it, and
	// the functions GenerateSource emits take one. A recording of their Stage
	// calls is a plan's step program, which the simulator runs.
	Stager = run.Stager
)

// TagSpan is the tag window one barrier invocation may use; back-to-back
// barriers alternate two windows.
const TagSpan = run.TagSpan

// NewPlan compiles a schedule, verifying that it globally synchronises. The
// plan is the one executable form of a schedule: pl.Func() hands its step
// programs to a World, NetPeer.Barrier runs them on a real mesh, and
// GenerateSource hard-codes them as Stage calls on a Stager.
func NewPlan(s *Schedule) (*Plan, error) { return run.NewPlan(s) }

// Measure times a barrier over warmup+iters iterations on a world.
func Measure(w *World, b BarrierFunc, warmup, iters int) (Measurement, error) {
	return run.Measure(w, b, warmup, iters)
}

// Validate performs the paper's delay-injection synchronization check.
func Validate(w *World, b BarrierFunc, delay float64, delayRanks []int) error {
	return run.Validate(w, b, delay, delayRanks)
}

// MPIBarrier is the directly-coded, topology-neutral binomial-tree barrier,
// the stand-in for OpenMPI's MPI_Barrier that the paper compares against
// (see internal/baseline): rank's program, one step per blocking call.
func MPIBarrier(rank, p int) []Step { return baseline.Tree(rank, p) }

// Adaptive tuning (see internal/core).
type (
	// TuneOptions configures the pipeline; the zero value is the paper's
	// configuration.
	TuneOptions = core.Options
	// TunedBarrier is a specialised barrier for one profiled platform.
	TunedBarrier = core.Tuned
	// CodegenOptions controls emitted barrier source.
	CodegenOptions = codegen.Options
)

// Tune runs the adaptive construction against a profile.
func Tune(pf *Profile, opts TuneOptions) (*TunedBarrier, error) { return core.Tune(pf, opts) }

// ProfileAndTune profiles a world and tunes a barrier for it in one call.
func ProfileAndTune(w *World, probeCfg ProbeConfig, opts TuneOptions) (*TunedBarrier, error) {
	return core.ProfileAndTune(w, probeCfg, opts)
}

// GenerateSource emits hard-coded Go source for any verified barrier
// schedule.
func GenerateSource(s *Schedule, opts CodegenOptions) ([]byte, error) {
	return codegen.Generate(s, opts)
}

// IBParams returns cost parameters for a low-latency RDMA-class cluster
// interconnect; the narrower locality gap shrinks (but does not eliminate)
// the tuned barrier's advantage.
func IBParams(seed uint64) FabricParams { return fabric.IBParams(seed) }
