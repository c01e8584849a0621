// Package baseline provides the directly-coded, topology-neutral barrier the
// paper compares against: Tree is the binomial algorithm the paper verified
// OpenMPI's MPI_Barrier to implement (§VII.C), written as the runtime's
// point-to-point operations, one blocking call at a time. The other classic
// designs are schedules (sched.Linear, sched.Dissemination,
// sched.RecursiveDoubling) run through internal/run.
//
// Unlike the schedule interpreter in internal/run, Tree computes its
// communication partners from the rank alone — it embodies the "handwritten,
// topology-unaware" approach the adaptive method is measured against.
package baseline

import "topobarrier/internal/mpi"

// Tree is a binomial-tree barrier (gather to rank 0, broadcast back): the
// stand-in for OpenMPI's MPI_Barrier. It is a run.Func: rank's program, one
// step per blocking call of the hand-written algorithm, so each send and
// each receive waits for its own completion.
func Tree(me, p int) []mpi.Step {
	var steps []mpi.Step
	call := func(tag int, recv bool, peer int) {
		st := mpi.Step{Tag: tag, Sends: []int{peer}}
		if recv {
			st = mpi.Step{Tag: tag, Recvs: []int{peer}}
		}
		steps = append(steps, st)
	}
	// Arrival: receive from every binomial child (lowest stage first), then
	// signal the parent.
	for e := 0; (1 << uint(e)) < p; e++ {
		bit := 1 << uint(e)
		if me&(bit-1) != 0 {
			continue // already signalled a parent in an earlier stage
		}
		if me&bit != 0 {
			call(e, false, me-bit)
			break
		}
		if me+bit < p {
			call(e, true, me+bit)
		}
	}
	// Departure: mirror image, highest stage first. Tags count up in
	// execution order — they are sched.Tree's stage indices — so a trace of
	// this barrier reads stage by stage like any schedule's.
	top := 0
	for (1 << uint(top)) < p {
		top++
	}
	for e := top - 1; e >= 0; e-- {
		bit, tag := 1<<uint(e), 2*top-1-e
		if me&(bit-1) != 0 {
			continue
		}
		if me&bit != 0 {
			call(tag, true, me-bit)
			continue
		}
		if me+bit < p {
			call(tag, false, me+bit)
		}
	}
	return steps
}
