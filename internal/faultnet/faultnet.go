// Package faultnet injects deterministic faults into net.Conn streams so
// transport failure handling can be tested without a real flaky network.
//
// The unit of injection is the frame: netmpi writes each length-prefixed
// message (and the 4-byte mesh handshake) as a single Write call, so
// counting writes counts frames. A wrapped connection consults an Injector
// before every write and can pass the frame through, silently drop it (the
// sender believes it was delivered — a lossy network), delay it (a
// congested or GC-stalled peer), truncate it mid-frame and sever the
// connection (a crash while writing), or sever cleanly (a killed process).
//
// Injection is deterministic: a Script names exact frame indices, and a
// Seeded injector derives per-frame faults from a SplitMix64 hash of
// (seed, frame), so a failing run replays bit-identically from its seed.
// Reads are never altered — faults on the wire are modelled at the writer,
// and a severed connection fails both directions anyway.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Op is what happens to one frame.
type Op int

const (
	// Pass delivers the frame unmodified.
	Pass Op = iota
	// Drop discards the frame but reports success to the writer.
	Drop
	// Delay sleeps Action.Delay before delivering the frame. The sleep holds
	// that connection's writer only: writes on other connections proceed.
	Delay
	// Truncate delivers only Action.Keep bytes of the frame, then severs
	// the connection.
	Truncate
	// Sever closes the connection instead of delivering the frame.
	Sever
)

func (o Op) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Sever:
		return "sever"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Action is the verdict for one frame.
type Action struct {
	Op    Op
	Delay time.Duration // Delay only
	Keep  int           // Truncate only: bytes delivered before severing
}

// Injector decides the fate of each frame a connection writes. Judge is
// called with the 0-based index of the frame about to be written; it must
// be safe for concurrent use if the connection is shared.
type Injector interface {
	Judge(frame int) Action
}

// Script maps exact frame indices to actions; absent frames pass through.
type Script map[int]Action

// Judge implements Injector.
func (s Script) Judge(frame int) Action { return s[frame] }

// SeverAt severs the connection at frame n.
func SeverAt(n int) Injector { return threshold{n, Action{Op: Sever}} }

// DropFrom silently discards every frame from index n on — the stalled-peer
// fault: the writer keeps "succeeding" while the receiver starves.
func DropFrom(n int) Injector { return threshold{n, Action{Op: Drop}} }

// DelayFrom delays every frame from index n on by d.
func DelayFrom(n int, d time.Duration) Injector {
	return threshold{n, Action{Op: Delay, Delay: d}}
}

// TruncateAt delivers keep bytes of frame n and severs the connection.
func TruncateAt(n, keep int) Injector {
	return threshold{n, Action{Op: Truncate, Keep: keep}}
}

// threshold applies act to every frame at or beyond the trigger index.
type threshold struct {
	from int
	act  Action
}

func (t threshold) Judge(frame int) Action {
	if frame >= t.from {
		return t.act
	}
	return Action{}
}

// Seeded derives an independent fault verdict for every frame from a
// SplitMix64 hash of (Seed, frame): same seed, same faults, every run. The
// probabilities are evaluated in order sever, drop, delay; their sum should
// stay below 1. Delay durations are hashed uniformly from (0, MaxDelay].
type Seeded struct {
	Seed                  uint64
	PSever, PDrop, PDelay float64
	MaxDelay              time.Duration
}

// Judge implements Injector.
func (s Seeded) Judge(frame int) Action {
	u := mix(s.Seed ^ mix(uint64(frame)+0x51ed270b))
	f := float64(u>>11) / (1 << 53)
	switch {
	case f < s.PSever:
		return Action{Op: Sever}
	case f < s.PSever+s.PDrop:
		return Action{Op: Drop}
	case f < s.PSever+s.PDrop+s.PDelay:
		max := s.MaxDelay
		if max <= 0 {
			max = time.Millisecond
		}
		return Action{Op: Delay, Delay: 1 + time.Duration(mix(u)%uint64(max))}
	}
	return Action{}
}

// mix is the SplitMix64 finalizer, the same stream generator the search
// portfolio uses for deterministic per-index randomness.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Conn wraps a net.Conn, applying the injector's verdict to each write.
type Conn struct {
	net.Conn
	inj Injector

	mu      sync.Mutex
	frames  int
	severed bool
}

// WrapConn decorates c with fault injection. A nil injector passes
// everything through.
func WrapConn(c net.Conn, inj Injector) *Conn {
	return &Conn{Conn: c, inj: inj}
}

// Write applies the injector's verdict for this frame.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	frame := c.frames
	c.frames++
	var act Action
	if c.inj != nil {
		act = c.inj.Judge(frame)
	}
	if act.Op == Truncate || act.Op == Sever {
		c.severed = true
	}
	c.mu.Unlock()

	switch act.Op {
	case Drop:
		return len(b), nil
	case Delay:
		time.Sleep(act.Delay)
		return c.Conn.Write(b)
	case Truncate:
		keep := act.Keep
		if keep < 0 {
			keep = 0
		}
		if keep > len(b) {
			keep = len(b)
		}
		if keep > 0 {
			c.Conn.Write(b[:keep])
		}
		c.Conn.Close()
		return keep, fmt.Errorf("faultnet: frame %d truncated to %d of %d bytes, connection severed", frame, keep, len(b))
	case Sever:
		c.Conn.Close()
		return 0, fmt.Errorf("faultnet: connection severed at frame %d", frame)
	}
	return c.Conn.Write(b)
}

// Listener wraps accepted connections with per-connection injectors. New is
// called once per accepted conn; returning nil leaves that conn unwrapped.
type Listener struct {
	net.Listener
	New func() Injector
}

// Accept wraps the next accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.New == nil {
		return c, err
	}
	inj := l.New()
	if inj == nil {
		return c, nil
	}
	return WrapConn(c, inj), nil
}

// SetDeadline forwards to the wrapped listener when it supports deadlines
// (a *net.TCPListener does), so accept loops stay bounded through the wrap.
func (l *Listener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}
