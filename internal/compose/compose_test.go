package compose

import (
	"strings"
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/sss"
	"topobarrier/internal/topo"
)

func quadOracle(t testing.TB, pl topo.Placement, p int) *profile.Profile {
	t.Helper()
	f, err := fabric.New(topo.QuadCluster(), pl, p, fabric.GigEParams(1))
	if err != nil {
		t.Fatal(err)
	}
	return f.TrueProfile()
}

func hybridFor(t testing.TB, pr *profile.Profile, opts sss.Options, builders []sched.Builder) *Result {
	t.Helper()
	pd := predict.New(pr)
	res, err := Hybrid(pd, sss.Tree(pr, opts), builders)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHybridIsBarrierAcrossSizes(t *testing.T) {
	for _, p := range []int{2, 3, 7, 8, 9, 16, 22, 31, 32, 40, 64} {
		pr := quadOracle(t, topo.RoundRobin{}, p)
		res := hybridFor(t, pr, sss.Options{}, sched.PaperBuilders())
		if !res.Schedule.IsBarrier() {
			t.Fatalf("hybrid(%d) not a barrier", p)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("hybrid(%d): %v", p, err)
		}
	}
}

func TestHybridSingleRank(t *testing.T) {
	pr := profile.New("one", 1)
	res := hybridFor(t, pr, sss.Options{}, sched.PaperBuilders())
	if res.Schedule.NumStages() != 0 {
		t.Fatalf("1-rank hybrid has %d stages", res.Schedule.NumStages())
	}
	if res.PredictedCost != 0 {
		t.Fatalf("1-rank hybrid predicted %g", res.PredictedCost)
	}
}

func TestHybridKeepsLocalTrafficLocal(t *testing.T) {
	// With a two-level hierarchy, all stages before the root phase must stay
	// within clusters, and only representatives may cross between them.
	pr := quadOracle(t, topo.Block{}, 24) // nodes {0..7},{8..15},{16..23}
	res := hybridFor(t, pr, sss.Options{MaxDepth: 1}, sched.PaperBuilders())
	node := func(r int) int { return r / 8 }
	crossSignals := 0
	for _, st := range res.Schedule.Stages {
		for i := 0; i < 24; i++ {
			for _, j := range st.Row(i) {
				if node(i) != node(j) {
					crossSignals++
					// Only representatives (0, 8, 16) may talk across nodes.
					if i%8 != 0 || j%8 != 0 {
						t.Fatalf("non-representative cross-node signal %d->%d", i, j)
					}
				}
			}
		}
	}
	if crossSignals == 0 {
		t.Fatalf("no cross-node signals at all")
	}
}

func TestHybridRootPrefersDissemination(t *testing.T) {
	// §VII.C: the generated hybrids favour dissemination at the top level of
	// uniform high-latency links, because it avoids the departure phase.
	pr := quadOracle(t, topo.Block{}, 40) // 5 nodes
	res := hybridFor(t, pr, sss.Options{MaxDepth: 1}, sched.PaperBuilders())
	var root *Choice
	for i := range res.Choices {
		if res.Choices[i].Root {
			root = &res.Choices[i]
		}
	}
	if root == nil {
		t.Fatalf("no root choice recorded")
	}
	if root.Algorithm != "dissemination" {
		t.Fatalf("root algorithm = %s, want dissemination over 5 uniform slow links", root.Algorithm)
	}
	if len(root.Ranks) != 5 {
		t.Fatalf("root ranks = %v, want the 5 node representatives", root.Ranks)
	}
}

func TestHybridBeatsPureAlgorithmsInPrediction(t *testing.T) {
	pr := quadOracle(t, topo.RoundRobin{}, 48)
	pd := predict.New(pr)
	res := hybridFor(t, pr, sss.Options{}, sched.PaperBuilders())
	for _, pure := range []*sched.Schedule{sched.Linear(48), sched.Dissemination(48), sched.Tree(48)} {
		if res.PredictedCost > pd.Cost(pure) {
			t.Fatalf("hybrid (%g) predicted slower than %s (%g)",
				res.PredictedCost, pure.Name, pd.Cost(pure))
		}
	}
}

func TestChoicesCoverEveryCluster(t *testing.T) {
	pr := quadOracle(t, topo.Block{}, 24)
	res := hybridFor(t, pr, sss.Options{MaxDepth: 1}, sched.PaperBuilders())
	// 3 leaf clusters + 1 root decision.
	if len(res.Choices) != 4 {
		t.Fatalf("choices = %d, want 4:\n%s", len(res.Choices), res.Describe())
	}
	roots := 0
	for _, c := range res.Choices {
		if c.Root {
			roots++
		}
		if c.Algorithm == "" || c.Cost < 0 || len(c.Ranks) == 0 {
			t.Fatalf("malformed choice %+v", c)
		}
	}
	if roots != 1 {
		t.Fatalf("%d root choices", roots)
	}
}

func TestDescribeMentionsAlgorithms(t *testing.T) {
	pr := quadOracle(t, topo.Block{}, 16)
	res := hybridFor(t, pr, sss.Options{MaxDepth: 1}, sched.PaperBuilders())
	d := res.Describe()
	if !strings.Contains(d, "root") || !strings.Contains(d, "hybrid over 16 ranks") {
		t.Fatalf("describe output:\n%s", d)
	}
}

func TestExtendedBuildersStillSynchronise(t *testing.T) {
	pr := quadOracle(t, topo.RoundRobin{}, 22)
	res := hybridFor(t, pr, sss.Options{}, sched.ExtendedBuilders())
	if !res.Schedule.IsBarrier() {
		t.Fatalf("extended-builder hybrid not a barrier")
	}
}

func TestNoBuildersError(t *testing.T) {
	pr := quadOracle(t, topo.Block{}, 8)
	if _, err := Hybrid(predict.New(pr), sss.Tree(pr, sss.Options{}), nil); err == nil {
		t.Fatalf("empty builder set accepted")
	}
}

func TestRootDeparturePresentForTreeRoot(t *testing.T) {
	// Force a 2-member root: tree and linear tie shapes; whichever is
	// chosen, the final schedule must include the departure back to both
	// clusters (i.e. it is a barrier — already asserted — and its last
	// stage must contain signals leaving the root representative).
	pr := quadOracle(t, topo.Block{}, 16) // 2 nodes
	res := hybridFor(t, pr, sss.Options{MaxDepth: 1}, sched.PaperBuilders())
	last := res.Schedule.Stages[res.Schedule.NumStages()-1]
	if last.IsZero() {
		t.Fatalf("empty final stage survived")
	}
	found := false
	for i := 0; i < 16 && !found; i++ {
		found = len(last.Row(i)) > 0
	}
	if !found {
		t.Fatalf("no departure signals in final stage")
	}
}

func BenchmarkHybrid64(b *testing.B) {
	pr := quadOracle(b, topo.RoundRobin{}, 64)
	pd := predict.New(pr)
	tree := sss.Tree(pr, sss.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Hybrid(pd, tree, sched.PaperBuilders()); err != nil {
			b.Fatal(err)
		}
	}
}
