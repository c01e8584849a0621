package sched

import (
	"encoding/json"
	"strings"
	"testing"

	"topobarrier/internal/mat"
)

// rootKnowsAll reports whether member `root` holds complete arrival knowledge
// after the schedule runs.
func rootKnowsAll(s *Schedule, root int) bool {
	ks := s.Knowledge()
	if len(ks) == 0 {
		return s.P == 1
	}
	last := ks[len(ks)-1]
	for i := 0; i < s.P; i++ {
		if !last.At(i, root) {
			return false
		}
	}
	return true
}

func TestLinearMatchesFigure2(t *testing.T) {
	s := Linear(4)
	if s.NumStages() != 2 {
		t.Fatalf("linear(4) has %d stages", s.NumStages())
	}
	want0 := mat.BoolFromRows([][]bool{
		{false, false, false, false},
		{true, false, false, false},
		{true, false, false, false},
		{true, false, false, false},
	})
	if !s.Stages[0].Equal(want0) {
		t.Fatalf("linear S0 =\n%v\nwant\n%v", s.Stages[0], want0)
	}
	if !s.Stages[1].Equal(want0.T()) {
		t.Fatalf("linear S1 is not S0ᵀ")
	}
	if !s.IsBarrier() {
		t.Fatalf("linear(4) is not a barrier")
	}
}

func TestDisseminationMatchesFigure3(t *testing.T) {
	s := Dissemination(4)
	if s.NumStages() != 2 {
		t.Fatalf("dissemination(4) has %d stages", s.NumStages())
	}
	want0 := mat.BoolFromRows([][]bool{
		{false, true, false, false},
		{false, false, true, false},
		{false, false, false, true},
		{true, false, false, false},
	})
	want1 := mat.BoolFromRows([][]bool{
		{false, false, true, false},
		{false, false, false, true},
		{true, false, false, false},
		{false, true, false, false},
	})
	if !s.Stages[0].Equal(want0) || !s.Stages[1].Equal(want1) {
		t.Fatalf("dissemination(4) stages wrong:\n%v", s)
	}
	if !s.IsBarrier() {
		t.Fatalf("dissemination(4) is not a barrier")
	}
}

func TestTreeMatchesFigure4(t *testing.T) {
	s := Tree(4)
	if s.NumStages() != 4 {
		t.Fatalf("tree(4) has %d stages", s.NumStages())
	}
	want0 := mat.BoolFromRows([][]bool{
		{false, false, false, false},
		{true, false, false, false},
		{false, false, false, false},
		{false, false, true, false},
	})
	want1 := mat.BoolFromRows([][]bool{
		{false, false, false, false},
		{false, false, false, false},
		{true, false, false, false},
		{false, false, false, false},
	})
	if !s.Stages[0].Equal(want0) {
		t.Fatalf("tree S0 wrong:\n%v", s.Stages[0])
	}
	if !s.Stages[1].Equal(want1) {
		t.Fatalf("tree S1 wrong:\n%v", s.Stages[1])
	}
	if !s.Stages[2].Equal(want1.T()) || !s.Stages[3].Equal(want0.T()) {
		t.Fatalf("tree departure is not reversed transposes")
	}
	if !s.IsBarrier() {
		t.Fatalf("tree(4) is not a barrier")
	}
}

// kAryTree is the full k-ary tree barrier: the arrival phase plus its
// transposed reversal.
func kAryTree(p, k int) *Schedule {
	arr := KAryTreeArrival(p, k)
	return arr.Concat(arr.ReverseTransposed())
}

func TestAllGeneratorsAreBarriers(t *testing.T) {
	gens := map[string]func(int) *Schedule{
		"linear":             Linear,
		"dissemination":      Dissemination,
		"tree":               Tree,
		"recursive-doubling": RecursiveDoubling,
		"ring":               Ring,
		"4-ary":              func(p int) *Schedule { return kAryTree(p, 4) },
	}
	for name, gen := range gens {
		for p := 1; p <= 40; p++ {
			s := gen(p)
			if err := s.Validate(); err != nil {
				t.Fatalf("%s(%d): %v", name, p, err)
			}
			if !s.IsBarrier() {
				t.Fatalf("%s(%d) does not synchronise", name, p)
			}
		}
	}
}

func TestStageCounts(t *testing.T) {
	cases := []struct {
		s    *Schedule
		want int
	}{
		{Linear(17), 2},
		{Dissemination(16), 4},
		{Dissemination(17), 5},
		{Tree(16), 8},
		{Tree(9), 8},
		{Ring(5), 8},
		{Dissemination(1), 0},
		{Linear(1), 0},
	}
	for _, c := range cases {
		if c.s.NumStages() != c.want {
			t.Errorf("%s has %d stages, want %d", c.s.Name, c.s.NumStages(), c.want)
		}
	}
}

func TestArrivalPhasesRootKnowledge(t *testing.T) {
	for p := 1; p <= 33; p++ {
		if !rootKnowsAll(LinearArrival(p), 0) {
			t.Fatalf("linear arrival(%d): root ignorant", p)
		}
		if !rootKnowsAll(TreeArrival(p), 0) {
			t.Fatalf("tree arrival(%d): root ignorant", p)
		}
		if !rootKnowsAll(KAryTreeArrival(p, 3), 0) {
			t.Fatalf("3-ary arrival(%d): root ignorant", p)
		}
	}
}

func TestDisseminationArrivalInformsEveryone(t *testing.T) {
	for p := 1; p <= 33; p++ {
		s := Dissemination(p)
		if !s.IsBarrier() {
			t.Fatalf("dissemination(%d) arrival does not inform everyone", p)
		}
	}
}

func TestArrivalAloneIsNotABarrier(t *testing.T) {
	for _, p := range []int{2, 7, 16} {
		if LinearArrival(p).IsBarrier() {
			t.Fatalf("linear arrival(%d) claims to be a barrier", p)
		}
		if TreeArrival(p).IsBarrier() {
			t.Fatalf("tree arrival(%d) claims to be a barrier", p)
		}
	}
}

func TestArrivalPlusReverseTransposedIsBarrier(t *testing.T) {
	for p := 2; p <= 25; p++ {
		for _, arr := range []*Schedule{LinearArrival(p), TreeArrival(p), ringToRoot(p), KAryTreeArrival(p, 5)} {
			full := arr.Clone().Concat(arr.ReverseTransposed())
			if !full.IsBarrier() {
				t.Fatalf("%s + reverseᵀ is not a barrier at p=%d", arr.Name, p)
			}
		}
	}
}

func TestRecursiveDoublingFallback(t *testing.T) {
	pow := RecursiveDoubling(8)
	if pow.NumStages() != 3 || !strings.Contains(pow.Name, "recursive-doubling(8)") {
		t.Fatalf("rd(8) = %s with %d stages", pow.Name, pow.NumStages())
	}
	// Pairwise symmetry: every stage matrix equals its own transpose.
	for k, st := range pow.Stages {
		if !st.Equal(st.T()) {
			t.Fatalf("rd(8) stage %d not symmetric", k)
		}
	}
	odd := RecursiveDoubling(6)
	if !strings.Contains(odd.Name, "dissemination") {
		t.Fatalf("rd(6) did not fall back: %s", odd.Name)
	}
}

func TestValidateRejectsSelfSignal(t *testing.T) {
	s := New("bad", 3)
	m := mat.NewBool(3)
	m.Set(1, 1, true)
	s.AddStage(m)
	if err := s.Validate(); err == nil {
		t.Fatalf("self-signal accepted")
	}
}

func TestIsBarrierDetectsHole(t *testing.T) {
	s := Linear(5)
	// Remove rank 3's arrival signal: rank 3's arrival is then unknown.
	s.Stages[0].Set(3, 0, false)
	if s.IsBarrier() {
		t.Fatalf("broken linear still claims to synchronise")
	}
}

func TestLift(t *testing.T) {
	local := LinearArrival(3)
	lifted := local.Lift(10, []int{4, 7, 9})
	if lifted.P != 10 || lifted.NumStages() != 1 {
		t.Fatalf("lift shape wrong")
	}
	if !lifted.Stages[0].At(7, 4) || !lifted.Stages[0].At(9, 4) {
		t.Fatalf("lifted signals wrong:\n%v", lifted.Stages[0])
	}
	if lifted.Stages[0].Count() != 2 {
		t.Fatalf("lift invented signals")
	}
}

func TestLiftPanicsOnBadRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("bad lift accepted")
		}
	}()
	LinearArrival(3).Lift(10, []int{4, 7})
}

func TestMergeEarlyAlignment(t *testing.T) {
	// A 3-stage part and a 1-stage part: the short part's signal must land in
	// stage 0 (the paper's example embeds the 1-stage linear arrival in the
	// first stage of the 3-stage result).
	long := TreeArrival(8).Lift(11, []int{0, 1, 2, 3, 4, 5, 6, 7})
	short := LinearArrival(3).Lift(11, []int{8, 9, 10})
	merged := MergeEarly("merged", 11, long, short)
	if merged.NumStages() != 3 {
		t.Fatalf("merged has %d stages", merged.NumStages())
	}
	if !merged.Stages[0].At(9, 8) || !merged.Stages[0].At(10, 8) {
		t.Fatalf("short part not embedded early")
	}
	for _, stage := range merged.Stages[1:] {
		for _, i := range []int{8, 9, 10} {
			if len(stage.Row(i)) != 0 {
				t.Fatalf("short part signals after stage 0")
			}
		}
	}
	// Merging must preserve the long part verbatim.
	for k := range long.Stages {
		for i := 0; i < 8; i++ {
			for _, j := range long.Stages[k].Row(i) {
				if !merged.Stages[k].At(i, j) {
					t.Fatalf("long part signal (%d->%d) lost in stage %d", i, j, k)
				}
			}
		}
	}
}

func TestDropEmptyStages(t *testing.T) {
	s := New("holey", 4)
	s.AddStage(mat.NewBool(4))
	m := mat.NewBool(4)
	m.Set(1, 0, true)
	s.AddStage(m)
	s.AddStage(mat.NewBool(4))
	got := s.DropEmptyStages()
	if got.NumStages() != 1 || !got.Stages[0].At(1, 0) {
		t.Fatalf("DropEmptyStages wrong: %v", got)
	}
	if s.NumStages() != 3 {
		t.Fatalf("DropEmptyStages mutated the receiver")
	}
}

func TestSignalCount(t *testing.T) {
	if got := Linear(5).SignalCount(); got != 8 {
		t.Fatalf("linear(5) signals = %d, want 8", got)
	}
	if got := Dissemination(8).SignalCount(); got != 24 {
		t.Fatalf("dissemination(8) signals = %d, want 24", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Tree(7)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) || back.Name != orig.Name {
		t.Fatalf("round trip lost data")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var s Schedule
	if err := json.Unmarshal([]byte(`{"name":"x","p":0,"stages":[]}`), &s); err == nil {
		t.Fatalf("p=0 accepted")
	}
	if err := json.Unmarshal([]byte(`{"name":"x","p":2,"stages":[[[0,5]]]}`), &s); err == nil {
		t.Fatalf("out-of-range edge accepted")
	}
	if err := json.Unmarshal([]byte(`{"name":"x","p":2,"stages":[[[1,1]]]}`), &s); err == nil {
		t.Fatalf("self-signal accepted via JSON")
	}
}

func TestCloneAndEqual(t *testing.T) {
	a := Tree(6)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone differs")
	}
	b.Stages[0].Set(0, 5, true)
	if a.Equal(b) {
		t.Fatalf("clone shares storage with original")
	}
	if a.Equal(Linear(6)) {
		t.Fatalf("tree equals linear")
	}
	if a.Equal(Tree(7)) {
		t.Fatalf("different sizes equal")
	}
}

func TestKnowledgeMonotone(t *testing.T) {
	s := Tree(12)
	ks := s.Knowledge()
	prev := 12 // identity entries
	for k, m := range ks {
		c := m.Count()
		if c < prev {
			t.Fatalf("knowledge shrank at stage %d: %d -> %d", k, prev, c)
		}
		prev = c
	}
	if prev != 12*12 {
		t.Fatalf("final knowledge incomplete: %d", prev)
	}
}

func TestBuilderContracts(t *testing.T) {
	for _, b := range ExtendedBuilders() {
		for p := 1; p <= 20; p++ {
			arr := b.Arrival(p)
			if err := arr.Validate(); err != nil {
				t.Fatalf("%s arrival(%d): %v", b.Name, p, err)
			}
			if !rootKnowsAll(arr, 0) {
				t.Fatalf("%s arrival(%d): root ignorant", b.Name, p)
			}
			if !b.NeedsDeparture {
				if !arr.IsBarrier() {
					t.Fatalf("%s claims no departure needed but arrival(%d) is not a barrier", b.Name, p)
				}
			}
			full := arr.Clone().Concat(arr.ReverseTransposed())
			if !full.IsBarrier() {
				t.Fatalf("%s(%d) with departure is not a barrier", b.Name, p)
			}
		}
	}
	if len(PaperBuilders()) != 3 {
		t.Fatalf("paper builders = %d", len(PaperBuilders()))
	}
}

func TestScheduleStringDump(t *testing.T) {
	out := Linear(3).String()
	if !strings.Contains(out, "S0 =") || !strings.Contains(out, "S1 =") {
		t.Fatalf("dump missing stages:\n%s", out)
	}
	if !strings.Contains(out, "3 ranks, 2 stages, 4 signals") {
		t.Fatalf("dump header wrong:\n%s", out)
	}
}

func TestKAryBuilderName(t *testing.T) {
	ext := ExtendedBuilders()
	if b := ext[len(ext)-1]; b.Name != "4-ary-tree" || !b.Arrival(13).Equal(KAryTreeArrival(13, 4)) {
		t.Fatalf("last extended builder is %q, want the 4-ary tree", b.Name)
	}
	if got := kAry(3).Name; got != "3-ary-tree" {
		t.Fatalf("kAry(3) is named %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("1-ary tree accepted")
		}
	}()
	KAryTreeArrival(4, 1)
}

func BenchmarkIsBarrierTree64(b *testing.B) {
	s := Tree(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.IsBarrier() {
			b.Fatal("not a barrier")
		}
	}
}

func BenchmarkGenerateDissemination128(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Dissemination(128)
	}
}
