package faultnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("pair: %v %v", cerr, err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func readN(t *testing.T, c net.Conn, n int, timeout time.Duration) ([]byte, error) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, n)
	m, err := io.ReadFull(c, buf)
	return buf[:m], err
}

func TestScriptPassAndDrop(t *testing.T) {
	client, server := tcpPair(t)
	w := WrapConn(client, Script{1: {Op: Drop}})
	for _, msg := range []string{"aa", "bb", "cc"} {
		if n, err := w.Write([]byte(msg)); err != nil || n != 2 {
			t.Fatalf("write %q: n=%d err=%v", msg, n, err)
		}
	}
	// Frame 1 ("bb") was dropped: the stream carries "aacc".
	got, err := readN(t, server, 4, time.Second)
	if err != nil || string(got) != "aacc" {
		t.Fatalf("stream = %q, %v", got, err)
	}
	if w.frames != 3 {
		t.Fatalf("frames = %d", w.frames)
	}
}

func TestDelayFrom(t *testing.T) {
	client, server := tcpPair(t)
	const d = 60 * time.Millisecond
	w := WrapConn(client, DelayFrom(1, d))
	start := time.Now()
	w.Write([]byte("x")) // frame 0: immediate
	w.Write([]byte("y")) // frame 1: delayed
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("second write returned after %v, before the %v delay", elapsed, d)
	}
	if got, err := readN(t, server, 2, time.Second); err != nil || string(got) != "xy" {
		t.Fatalf("stream = %q, %v", got, err)
	}
}

func TestSeverAt(t *testing.T) {
	client, server := tcpPair(t)
	w := WrapConn(client, SeverAt(1))
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("no")); err == nil {
		t.Fatal("severed write reported success")
	}
	// Later writes fail fast without reaching the socket.
	if _, err := w.Write([]byte("no")); err != net.ErrClosed {
		t.Fatalf("post-sever write: %v", err)
	}
	// The reader sees the delivered prefix then EOF.
	got, _ := readN(t, server, 2, time.Second)
	if string(got) != "ok" {
		t.Fatalf("prefix = %q", got)
	}
	if _, err := readN(t, server, 1, time.Second); err == nil {
		t.Fatal("no EOF after sever")
	}
}

func TestTruncateAt(t *testing.T) {
	client, server := tcpPair(t)
	w := WrapConn(client, TruncateAt(0, 3))
	n, err := w.Write([]byte("abcdef"))
	if err == nil || n != 3 {
		t.Fatalf("truncated write: n=%d err=%v", n, err)
	}
	got, _ := readN(t, server, 3, time.Second)
	if string(got) != "abc" {
		t.Fatalf("prefix = %q", got)
	}
	if _, err := readN(t, server, 1, time.Second); err == nil {
		t.Fatal("no EOF after truncation")
	}
}

func TestSeededDeterminismAndRates(t *testing.T) {
	inj := Seeded{Seed: 42, PSever: 0.01, PDrop: 0.05, PDelay: 0.1, MaxDelay: time.Millisecond}
	again := Seeded{Seed: 42, PSever: 0.01, PDrop: 0.05, PDelay: 0.1, MaxDelay: time.Millisecond}
	counts := map[Op]int{}
	const frames = 20000
	for i := 0; i < frames; i++ {
		a, b := inj.Judge(i), again.Judge(i)
		if a != b {
			t.Fatalf("frame %d: %v != %v for identical seeds", i, a, b)
		}
		counts[a.Op]++
		if a.Op == Delay && (a.Delay <= 0 || a.Delay > time.Millisecond+1) {
			t.Fatalf("frame %d: delay %v out of range", i, a.Delay)
		}
	}
	// Empirical rates within 3x of nominal — this is a smoke bound, the
	// determinism above is the real contract.
	check := func(op Op, p float64) {
		t.Helper()
		got := float64(counts[op]) / frames
		if got < p/3 || got > p*3 {
			t.Errorf("%v rate = %.4f, want ≈%.4f", op, got, p)
		}
	}
	check(Sever, 0.01)
	check(Drop, 0.05)
	check(Delay, 0.1)
	other := Seeded{Seed: 43, PSever: 0.01, PDrop: 0.05, PDelay: 0.1, MaxDelay: time.Millisecond}
	same := true
	for i := 0; i < 256; i++ {
		if other.Judge(i) != inj.Judge(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical verdict streams")
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &Listener{Listener: raw, New: func() Injector { return DropFrom(0) }}
	defer ln.Close()
	if err := ln.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		c.Read(buf)
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*Conn); !ok {
		t.Fatalf("accepted conn is %T, not wrapped", conn)
	}
	// Every write is dropped; the dialer's read must time out empty.
	if n, err := conn.Write([]byte("z")); n != 1 || err != nil {
		t.Fatalf("dropped write: n=%d err=%v", n, err)
	}
}
