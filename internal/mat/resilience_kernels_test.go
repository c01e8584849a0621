package mat

import "testing"

// maskOf builds a rank bitset from indices.
func maskOf(words int, ranks ...int) []uint64 {
	m := make([]uint64, words)
	for _, r := range ranks {
		m[r/64] |= 1 << (uint(r) % 64)
	}
	return m
}

// TestPropagateSilencedInto: silencing a relay must match Propagate over a
// stage matrix with that rank's row zeroed, for both a small matrix and one
// spanning multiple words.
func TestPropagateSilencedInto(t *testing.T) {
	for _, n := range []int{5, 70} {
		// Ring stage: i signals i+1 mod n.
		s := NewBool(n)
		for i := 0; i < n; i++ {
			s.Set(i, (i+1)%n, true)
		}
		k := Identity(n)
		silent := maskOf(k.words, 2)

		got := NewBool(n)
		PropagateSilencedInto(got, k, s, silent)

		zeroed := s.Clone()
		for j := 0; j < n; j++ {
			zeroed.Set(2, j, false)
		}
		want := Propagate(k, zeroed)
		if !got.Equal(want) {
			t.Errorf("n=%d: silenced propagate differs from zeroed-row propagate", n)
		}
		// The silenced rank still receives: entry (1, 2) must be set after
		// rank 1's signal to rank 2 lands.
		if !got.At(1, 2) {
			t.Errorf("n=%d: silenced rank stopped receiving", n)
		}
	}
}

// TestReachableFrom: BFS closure over a path graph, with and without a
// silenced cut vertex.
func TestReachableFrom(t *testing.T) {
	n := 70 // spans two words
	m := NewBool(n)
	for i := 0; i+1 < n; i++ {
		m.Set(i, i+1, true)
	}
	w := m.words

	seed := maskOf(w, 0)
	m.ReachableFrom(seed, nil)
	for j := 0; j < n; j++ {
		if seed[j/64]&(1<<(uint(j)%64)) == 0 {
			t.Fatalf("rank %d unreachable on an unbroken path", j)
		}
	}

	// Silencing rank 40 cuts the path: nothing past it is reachable, and
	// rank 40 itself is still reached (silence stops forwarding, not
	// receipt).
	seed = maskOf(w, 0)
	m.ReachableFrom(seed, maskOf(w, 40))
	for j := 0; j <= 40; j++ {
		if seed[j/64]&(1<<(uint(j)%64)) == 0 {
			t.Errorf("rank %d should be reachable up to the cut", j)
		}
	}
	for j := 41; j < n; j++ {
		if seed[j/64]&(1<<(uint(j)%64)) != 0 {
			t.Errorf("rank %d reachable across silenced cut vertex", j)
		}
	}
}
