package netmpi

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"topobarrier/internal/topo"
)

// TransportClass identifies which transport carries one mesh link. The mesh
// is hybrid at link granularity: every ordered pair of ranks communicates
// over exactly one class, chosen at Dial time from the co-location map, and
// both endpoints must agree on the choice (the map is part of the mesh
// contract, like the address list).
type TransportClass int

const (
	// TransportTCP is the framed-TCP link: length-prefixed frames over a
	// socket, demultiplexed by a per-connection reader goroutine. It is the
	// only class that crosses a node boundary.
	TransportTCP TransportClass = iota
	// TransportShm is the intra-node fast path: the two endpoints share the
	// receiver's mailboxes, and a send is a put into one of them on the
	// sender's goroutine. No sockets, no syscalls, no frame serialization, no
	// goroutine in between.
	TransportShm
)

// String returns the short class name used in metric labels, span tags, and
// error messages.
func (c TransportClass) String() string {
	switch c {
	case TransportTCP:
		return "tcp"
	case TransportShm:
		return "shm"
	default:
		return fmt.Sprintf("transport(%d)", int(c))
	}
}

// NodesFromPlacement derives the co-location vector of a placed job: ranks
// pinned to cores of the same node share a node id, so every link the
// topology classifies below CrossNode becomes a shared-memory link.
func NodesFromPlacement(spec topo.Spec, pl topo.Placement, p int) ([]int, error) {
	cores, err := pl.Assign(spec, p)
	if err != nil {
		return nil, err
	}
	nodes := make([]int, p)
	for r, c := range cores {
		nodes[r] = spec.CoreAt(c).Node
	}
	return nodes, nil
}

// ParseColocation decodes a CLI co-location spec into a node-id vector of
// length p. Two forms are accepted:
//
//   - "nodes=K": the ranks are split into K equal contiguous blocks (the
//     block placement on a K-node machine);
//   - explicit groups "0-3,4-7" or "0 1 2,3 4 5": comma-separated groups of
//     ranks (ranges and space-separated lists), each group one node. Ranks
//     not named get a private node, i.e. all their links stay on TCP.
//
// A rank may appear in at most one group.
func ParseColocation(spec string, p int) ([]int, error) {
	if p <= 0 {
		return nil, fmt.Errorf("netmpi: colocation over %d ranks", p)
	}
	spec = strings.TrimSpace(spec)
	if k, ok := strings.CutPrefix(spec, "nodes="); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n <= 0 || n > p {
			return nil, fmt.Errorf("netmpi: bad colocation %q: want 1..%d nodes", spec, p)
		}
		per := (p + n - 1) / n
		nodes := make([]int, p)
		for r := range nodes {
			nodes[r] = r / per
		}
		return nodes, nil
	}
	nodes := make([]int, p)
	for r := range nodes {
		nodes[r] = -1
	}
	next := 0
	for _, group := range strings.Split(spec, ",") {
		members, err := parseRankGroup(group, p)
		if err != nil {
			return nil, err
		}
		if len(members) == 0 {
			continue
		}
		for _, r := range members {
			if nodes[r] != -1 {
				return nil, fmt.Errorf("netmpi: bad colocation %q: rank %d in two groups", spec, r)
			}
			nodes[r] = next
		}
		next++
	}
	// Unlisted ranks get singleton nodes so every link touching them is TCP.
	for r := range nodes {
		if nodes[r] == -1 {
			nodes[r] = next
			next++
		}
	}
	return nodes, nil
}

// parseRankGroup decodes one group: ranges "a-b" and single ranks, separated
// by spaces.
func parseRankGroup(group string, p int) ([]int, error) {
	var members []int
	for _, tok := range strings.Fields(group) {
		lo, hi, found := strings.Cut(tok, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("netmpi: bad colocation rank %q", tok)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("netmpi: bad colocation range %q", tok)
			}
		}
		if a > b || a < 0 || b >= p {
			return nil, fmt.Errorf("netmpi: colocation range %q outside 0..%d", tok, p-1)
		}
		for r := a; r <= b; r++ {
			members = append(members, r)
		}
	}
	sort.Ints(members)
	return members, nil
}

// TransportSignature is the canonical string form of a co-location vector,
// used in profile fingerprints and report headers: "tcp" for a pure-TCP mesh
// (nil or all-distinct nodes), otherwise "shm:" followed by the node ids.
func TransportSignature(nodes []int) string {
	if nodes == nil {
		return "tcp"
	}
	hasShm := false
	seen := map[int]bool{}
	for _, n := range nodes {
		if seen[n] {
			hasShm = true
			break
		}
		seen[n] = true
	}
	if !hasShm {
		return "tcp"
	}
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.Itoa(n)
	}
	return "shm:" + strings.Join(parts, ",")
}

// ShmHub is the in-process rendezvous through which co-located ranks find
// the shared-memory segment connecting them — the stand-in for a named
// shm_open segment on a real node. A segment exists from the moment either
// endpoint first asks for it and holds each direction's inbox, so mail sent
// before the other endpoint's Dial attaches waits there. The hub also owns
// each rank's lock, the one lock that guards a rank's mailboxes and its
// cursor: a segment's inbox needs its receiver's lock before the receiver
// exists. Every rank of one mesh must be handed the same hub (LoopbackMesh
// and HybridMesh do this; manual Dial callers share one hub across their
// goroutine ranks).
type ShmHub struct {
	mu    sync.Mutex
	segs  map[[2]int]*shmSegment
	locks map[int]*sync.Mutex
}

// NewShmHub returns an empty rendezvous.
func NewShmHub() *ShmHub {
	return &ShmHub{segs: map[[2]int]*shmSegment{}, locks: map[int]*sync.Mutex{}}
}

// segment returns the shared segment of the unordered pair {a, b}, creating
// it on first attach. Both endpoints get the same segment.
func (h *ShmHub) segment(a, b int) *shmSegment {
	if a > b {
		a, b = b, a
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	key := [2]int{a, b}
	seg, ok := h.segs[key]
	if !ok {
		seg = new(shmSegment)
		seg.fromLo.rank, seg.fromHi.rank = h.lockOf(b), h.lockOf(a)
		h.segs[key] = seg
	}
	return seg
}

// rankLock returns rank r's lock.
func (h *ShmHub) rankLock(r int) *sync.Mutex {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lockOf(r)
}

// lockOf returns rank r's lock, creating it on first use. Caller holds h.mu.
func (h *ShmHub) lockOf(r int) *sync.Mutex {
	l, ok := h.locks[r]
	if !ok {
		l = new(sync.Mutex)
		h.locks[r] = l
	}
	return l
}

// WithColocation routes the links between co-located ranks over the shared-
// memory transport: nodes[i] is rank i's node id, links between same-node
// ranks attach a segment in hub instead of dialing TCP, and everything else
// stays on framed TCP. Every rank of the mesh must be configured with the
// same hub and the same node vector — the map is part of the mesh contract,
// and a disagreement surfaces as a mesh-formation failure (one side waits
// for a TCP handshake the other never sends).
func WithColocation(hub *ShmHub, nodes []int) Option {
	return func(p *Peer) {
		p.hub = hub
		p.nodes = append([]int(nil), nodes...)
	}
}

// TransportOf reports which transport carries this peer's link to rank j
// (TransportTCP for the self link, which never carries traffic).
func (p *Peer) TransportOf(j int) TransportClass {
	if p.nodes != nil && j != p.rank && j >= 0 && j < len(p.nodes) && p.nodes[j] == p.nodes[p.rank] {
		return TransportShm
	}
	return TransportTCP
}

// TransportSignature returns the mesh's transport signature (see
// TransportSignature); all ranks of one mesh agree on it.
func (p *Peer) TransportSignature() string {
	return TransportSignature(p.nodes)
}
