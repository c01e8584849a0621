package topobarrier_test

import (
	"fmt"
	"log"

	"topobarrier"
)

// Example_pipeline shows the full adaptive pipeline: simulate, profile,
// tune, verify, compare.
func Example_pipeline() {
	fab, err := topobarrier.NewFabric(
		topobarrier.QuadCluster(), topobarrier.RoundRobin{}, 24, topobarrier.GigEParams(42))
	if err != nil {
		log.Fatal(err)
	}
	world := topobarrier.NewWorld(fab)

	cfg := topobarrier.DefaultProbe()
	cfg.Replicate = true
	prof, err := topobarrier.MeasureProfile(world, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := topobarrier.Tune(prof, topobarrier.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := topobarrier.Validate(world, tuned.Func(), 0.5, []int{0, 23}); err != nil {
		log.Fatal(err)
	}
	hybrid, _ := topobarrier.Measure(world, tuned.Func(), 5, 30)
	mpi, _ := topobarrier.Measure(world, topobarrier.MPIBarrier, 5, 30)
	fmt.Println("schedule verified:", tuned.Schedule().IsBarrier())
	fmt.Println("hybrid faster than MPI tree:", hybrid.Mean < mpi.Mean)
	// Output:
	// schedule verified: true
	// hybrid faster than MPI tree: true
}

// ExampleSchedule shows the paper's matrix representation (Figure 2): the
// 4-rank linear barrier is two stages, the second the transpose of the
// first.
func ExampleSchedule() {
	s := topobarrier.Linear(4)
	fmt.Print(s)
	// Output:
	// linear(4): 4 ranks, 2 stages, 6 signals
	// S0 =
	// 0 0 0 0
	// 1 0 0 0
	// 1 0 0 0
	// 1 0 0 0
	// S1 =
	// 0 1 1 1
	// 0 0 0 0
	// 0 0 0 0
	// 0 0 0 0
}

// ExampleTune shows the clustering and decisions behind a composed hybrid.
func ExampleTune() {
	fab, err := topobarrier.NewFabric(
		topobarrier.QuadCluster(), topobarrier.Block{}, 16, topobarrier.GigEParams(1))
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := topobarrier.Tune(fab.TrueProfile(), topobarrier.TuneOptions{
		Clustering: topobarrier.ClusterOptions{MaxDepth: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", tuned.Tree)
	fmt.Println("stages:", tuned.Schedule().NumStages())
	// Output:
	// clusters: [[0 1 2 3 4 5 6 7] [8 9 10 11 12 13 14 15]]
	// stages: 3
}

// ExampleGenerateSource shows the §VII.C code generator.
func ExampleGenerateSource() {
	src, err := topobarrier.GenerateSource(topobarrier.Linear(2), topobarrier.CodegenOptions{
		Package: "main", FuncName: "TinyBarrier",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s", src)
	// Output:
	// // Code generated by topobarrier codegen from schedule "linear(2)". DO NOT EDIT.
	//
	// package main
	//
	// import (
	// 	"fmt"
	//
	// 	topobarrier "topobarrier"
	// )
	//
	// // TinyBarrier executes the barrier "linear(2)", specialised for exactly 2 ranks.
	// // It runs on any topobarrier.Stager, a simulated rank or a live mesh peer.
	// // Every rank of the job must call it with the same tagBase; the function
	// // uses tags in [tagBase, tagBase+2).
	// func TinyBarrier(c topobarrier.Stager, tagBase int) error {
	// 	if c.Size() != 2 {
	// 		return fmt.Errorf("TinyBarrier: compiled for 2 ranks, called on %d", c.Size())
	// 	}
	// 	switch c.Rank() {
	// 	case 0:
	// 		if err := c.Stage(tagBase+0, peersTinyBarrier[0], nil); err != nil {
	// 			return err
	// 		}
	// 		if err := c.Stage(tagBase+1, nil, peersTinyBarrier[0]); err != nil {
	// 			return err
	// 		}
	// 	case 1:
	// 		if err := c.Stage(tagBase+0, nil, peersTinyBarrier[1]); err != nil {
	// 			return err
	// 		}
	// 		if err := c.Stage(tagBase+1, peersTinyBarrier[1], nil); err != nil {
	// 			return err
	// 		}
	// 	}
	// 	return nil
	// }
	//
	// // peersTinyBarrier holds TinyBarrier's peer lists.
	// var peersTinyBarrier = [...][]int{
	// 	{1},
	// 	{0},
	// }
}
