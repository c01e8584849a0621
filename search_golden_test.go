// Golden pins of the search's trajectories, recorded at the commit before
// candidate scoring became per-kind (PR 14). The anneal is deterministic in
// its seed, so any change to what it examines, accepts or returns moves at
// least one of these: the SHA-256 of the result schedule's JSON, the bits of
// its cost, and the number of candidates examined.
package topobarrier_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"topobarrier/internal/core"
	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/telemetry"
)

type searchPin struct {
	sha      string
	costBits uint64
	examined int
}

func pinOf(t *testing.T, s *sched.Schedule, cost float64, examined int) searchPin {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return searchPin{hex.EncodeToString(sum[:]), math.Float64bits(cost), examined}
}

func checkPin(t *testing.T, what string, got, want searchPin) {
	t.Helper()
	if got != want {
		t.Errorf("%s moved:\n got {%q, %#x, %d}\nwant {%q, %#x, %d}",
			what, got.sha, got.costBits, got.examined, want.sha, want.costBits, want.examined)
	}
}

// TestGoldenAnnealTree32 is the search_cold_p32 shape at a tenth of its
// budget: binomial-tree seed, uniform proposals, three restarts.
func TestGoldenAnnealTree32(t *testing.T) {
	want := []searchPin{
		{"59f47011039acfa04f44ae18454e9c8cf3d308fa8ae591fdc2ec9a9fcd8737ea", 0x3f0c92ddbdb5d894, 100331},
		{"a0ed7f49f5008c33e4622453fcf31132b39993ea576486ff70f53768ffbfabd0", 0x3f0c20c7f6a436ac, 108621},
		{"f0a9b0372a6b17fb6e589d98ab9acfbb996eb5fc77a2d70669efeb90b6754774", 0x3f08d3359c99ff1b, 102279},
	}
	pd := throughputPredictor(t, 32)
	for seed, w := range want {
		res, err := search.Anneal(pd, sched.Tree(32), search.AnnealOptions{Seed: uint64(seed), Budget: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("tree P=32 seed %d", seed), pinOf(t, res.Schedule, res.Cost, res.Examined), w)
	}
}

// TestGoldenTuneRefine256 is the tune_scale shape: SSS-leaf cluster-pruned
// proposals in best-of-8 batches, reject-heavy. Through core.Tune the composed
// seed is already a local optimum at this budget, so the pin there is the
// candidate count; the same proposer from the binomial tree moves the schedule.
func TestGoldenTuneRefine256(t *testing.T) {
	pf := scaleProfile(t, 256)
	reg := telemetry.NewRegistry()
	tuned, err := core.Tune(pf, core.Options{Refine: 20_000, RefineBatch: 8, RefineSeed: 5, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	examined := int(reg.Counter("search_candidates_total").Value())
	checkPin(t, "core.Tune refine P=256", pinOf(t, tuned.Schedule(), tuned.PredictedCost(), examined),
		searchPin{"320b4828a25f6d7a2a49a0dedac0b10a26749f4e5f41c8489fefad57f60dc2ce", 0x3f036cc44e7909d7, 5581})

	res, err := search.Anneal(predict.New(pf), sched.Tree(256), search.AnnealOptions{
		Seed: 5, Budget: 20_000, Clusters: scaleClusters(pf), BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "clustered batch-8 anneal from tree P=256", pinOf(t, res.Schedule, res.Cost, res.Examined),
		searchPin{"c23f72c34129bd18da84e260439aa2a7edfdd317283359b11dfe05466e50c9fa", 0x3f10bce6a5bbe6cc, 4497})
}

// TestGoldenAnnealDissemination16 is an eight-restart portfolio with elite
// exchange, which must not depend on how many cores (GOMAXPROCS) run the
// restarts.
func TestGoldenAnnealDissemination16(t *testing.T) {
	want := searchPin{"099e1e0546d9542eb049682a7106aedf03cf057ec70c90b9b6e900b5a4c4b285", 0x3f11b1d92b7fe08a, 27348}
	pd := throughputPredictor(t, 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		res, err := search.Anneal(pd, sched.Dissemination(16), search.AnnealOptions{
			Seed: 3, Budget: 32000, Restarts: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("dissemination P=16 GOMAXPROCS %d", procs), pinOf(t, res.Schedule, res.Cost, res.Examined), want)
	}
}
