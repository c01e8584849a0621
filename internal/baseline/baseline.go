// Package baseline provides the directly-coded, topology-neutral barrier the
// paper compares against: Tree is the binomial algorithm the paper verified
// OpenMPI's MPI_Barrier to implement (§VII.C), written against the runtime's
// point-to-point API. The other classic designs are schedules
// (sched.Linear, sched.Dissemination, sched.RecursiveDoubling) run through
// internal/run.
//
// Unlike the schedule interpreter in internal/run, Tree computes its
// communication partners from the rank alone — it embodies the "handwritten,
// topology-unaware" approach the adaptive method is measured against.
package baseline

import "topobarrier/internal/mpi"

// Tree is a binomial-tree barrier (gather to rank 0, broadcast back): the
// stand-in for OpenMPI's MPI_Barrier.
func Tree(c *mpi.Comm, tagBase int) {
	me, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	// Arrival: receive from every binomial child (lowest stage first), then
	// signal the parent.
	for e := 0; (1 << uint(e)) < p; e++ {
		bit := 1 << uint(e)
		if me&(bit-1) != 0 {
			continue // already signalled a parent in an earlier stage
		}
		if me&bit != 0 {
			c.Send(me-bit, tagBase+e, 0)
			break
		}
		if me+bit < p {
			c.Recv(me+bit, tagBase+e)
		}
	}
	// Departure: mirror image, highest stage first. Tag offsets count up in
	// execution order — they are sched.Tree's stage indices — so a trace of
	// this barrier reads stage by stage like any schedule's.
	top := 0
	for (1 << uint(top)) < p {
		top++
	}
	for e := top - 1; e >= 0; e-- {
		bit, tag := 1<<uint(e), tagBase+2*top-1-e
		if me&(bit-1) != 0 {
			continue
		}
		if me&bit != 0 {
			c.Recv(me-bit, tag)
			continue
		}
		if me+bit < p {
			c.Send(me+bit, tag, 0)
		}
	}
}
