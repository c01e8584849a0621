package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"topobarrier/internal/faultnet"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/run"
)

const (
	meshTimeout = 10 * time.Second
	// recvDeadline bounds every receive of a barrier: a healthy barrier takes
	// microseconds to milliseconds, so hitting it is a failure, not noise.
	recvDeadline = 10 * time.Second
)

// mesh is a live netmpi mesh plus the count of collective calls made on it,
// whose parity selects the tag window (adjacent barriers may overlap in
// flight, so they alternate windows the way Peer.MeasureBarrier does).
type mesh struct {
	peers []*netmpi.Peer
	seq   int
}

// dial forms the workload's mesh. The only goroutines are the P rank
// goroutines of the dial itself and the readers the mesh owns.
func (w *workload) dial(opts ...netmpi.Option) (*mesh, error) {
	v := w.live
	if v.delay == 0 {
		var nodes []int
		if v.shm {
			nodes = make([]int, w.p) // all ranks on node 0
		}
		peers, err := netmpi.HybridMesh(w.p, nodes, meshTimeout, opts...)
		if err != nil {
			return nil, err
		}
		return &mesh{peers: peers}, nil
	}
	listeners := make([]net.Listener, w.p)
	addrs := make([]string, w.p)
	closeListeners := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	defer closeListeners()
	for i := range listeners {
		ln, err := netmpi.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = &faultnet.Listener{Listener: ln, New: func() faultnet.Injector {
			return faultnet.DelayFrom(0, v.delay)
		}}
		addrs[i] = ln.Addr().String()
	}
	m := &mesh{peers: make([]*netmpi.Peer, w.p)}
	errs := make([]error, w.p)
	var wg sync.WaitGroup
	for i := range m.peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.peers[i], errs[i] = netmpi.Dial(i, addrs, listeners[i], meshTimeout, opts...)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			m.close()
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return m, nil
}

func (m *mesh) close() { netmpi.CloseMesh(m.peers) }

// collective makes every rank goroutine issue n calls back to back; call
// receives the rank and the running collective index. It returns rank 0's
// completion time of every call and the first error any rank met.
func (m *mesh) collective(n int, call func(rank, index int) error) ([]time.Time, error) {
	stamps := make([]time.Time, n)
	errs := make([]error, len(m.peers))
	var wg sync.WaitGroup
	for r := range m.peers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := call(r, m.seq+i); err != nil {
					errs[r] = fmt.Errorf("rank %d, call %d: %w", r, i, err)
					return
				}
				if r == 0 {
					stamps[i] = time.Now()
				}
			}
		}(r)
	}
	wg.Wait()
	m.seq += n
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stamps, nil
}

func tagWindow(index int) int { return (index % 2) * run.TagSpan }

// barrier is the plain executor call for collective.
func (m *mesh) barrier(pl *run.Plan) func(int, int) error {
	return func(r, i int) error { return m.peers[r].Barrier(pl, tagWindow(i), recvDeadline) }
}

// periods runs n calls and returns the n-1 intervals, in seconds, between
// consecutive completions observed at rank 0.
func (m *mesh) periods(n int, call func(int, int) error) ([]float64, error) {
	stamps, err := m.collective(n, call)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	return out, nil
}

// lateRankDelay is how long the delayed rank of checkDelayedRank sleeps
// before entering: far above a barrier's duration, so a rank that leaves
// early is unmistakable.
const lateRankDelay = 2 * time.Millisecond

// checkDelayedRank is the §VI delay-injection check on the live mesh: rank d
// enters one barrier lateRankDelay late, and no rank may leave it before d
// entered.
func (m *mesh) checkDelayedRank(pl *run.Plan, d int) error {
	enter := make([]time.Time, len(m.peers))
	exit := make([]time.Time, len(m.peers))
	_, err := m.collective(1, func(r, i int) error {
		if r == d {
			time.Sleep(lateRankDelay)
		}
		enter[r] = time.Now()
		err := m.peers[r].Barrier(pl, tagWindow(i), recvDeadline)
		exit[r] = time.Now()
		return err
	})
	if err != nil {
		return err
	}
	for r, x := range exit {
		if x.Before(enter[d]) {
			return fmt.Errorf("rank %d left %v before delayed rank %d entered", r, enter[d].Sub(x), d)
		}
	}
	return nil
}

// pingPong measures the median round trip of n zero-byte ping-pongs between
// ranks 0 and 1 on the otherwise idle mesh, and the median duration of rank
// 0's Send calls, both in seconds.
func (m *mesh) pingPong(n int) (rtt, send float64, err error) {
	const tag = 3 * run.TagSpan // clear of both barrier windows
	rtts := make([]float64, n)
	sends := make([]float64, n)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := m.peers[1].Recv(0, tag, recvDeadline); err != nil {
				echoErr <- err
				return
			}
			if err := m.peers[1].Send(0, tag, nil); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		err = m.peers[0].Send(1, tag, nil)
		sends[i] = time.Since(t0).Seconds()
		if err == nil {
			_, err = m.peers[0].Recv(1, tag, recvDeadline)
		}
		rtts[i] = time.Since(t0).Seconds()
	}
	// The echo side always ends: its receives carry recvDeadline and wake at
	// once if the mesh failed under rank 0.
	if echo := <-echoErr; err == nil {
		err = echo
	}
	if err != nil {
		return 0, 0, err
	}
	return median(rtts), median(sends), nil
}
