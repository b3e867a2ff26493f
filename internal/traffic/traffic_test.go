package traffic

import (
	"math/rand"
	"testing"
)

func TestBitPatternsArePermutations(t *testing.T) {
	ranks := 256
	for _, p := range []Pattern{BitShuffle, BitReverse, Transpose, BitComplement} {
		seen := make([]bool, ranks)
		for src := 0; src < ranks; src++ {
			dst := p.Dest(src, ranks, nil)
			if dst < 0 || dst >= ranks {
				t.Fatalf("%v: dest %d out of range", p, dst)
			}
			if seen[dst] {
				t.Fatalf("%v: dest %d hit twice — not a permutation", p, dst)
			}
			seen[dst] = true
		}
	}
}

func TestBitShuffleKnownValues(t *testing.T) {
	// 8 ranks (3 bits): shuffle(b2b1b0) = b1b0b2.
	cases := map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7}
	for src, want := range cases {
		if got := BitShuffle.Dest(src, 8, nil); got != want {
			t.Errorf("shuffle(%d)=%d want %d", src, got, want)
		}
	}
}

func TestBitReverseKnownValues(t *testing.T) {
	// 8 ranks: reverse(b2b1b0) = b0b1b2.
	cases := map[int]int{0: 0, 1: 4, 2: 2, 3: 6, 4: 1, 5: 5, 6: 3, 7: 7}
	for src, want := range cases {
		if got := BitReverse.Dest(src, 8, nil); got != want {
			t.Errorf("reverse(%d)=%d want %d", src, got, want)
		}
	}
}

func TestTransposeKnownValues(t *testing.T) {
	// 16 ranks (4 bits): transpose swaps the two halves: b3b2b1b0 → b1b0b3b2.
	cases := map[int]int{0: 0, 1: 4, 4: 1, 5: 5, 2: 8, 8: 2, 15: 15}
	for src, want := range cases {
		if got := Transpose.Dest(src, 16, nil); got != want {
			t.Errorf("transpose(%d)=%d want %d", src, got, want)
		}
	}
}

func TestTransposeIsInvolutionForEvenBits(t *testing.T) {
	ranks := 1 << 10
	for src := 0; src < ranks; src += 7 {
		d := Transpose.Dest(src, ranks, nil)
		if Transpose.Dest(d, ranks, nil) != src {
			t.Fatalf("transpose not an involution at %d", src)
		}
	}
}

func TestBitComplementKnownValues(t *testing.T) {
	if got := BitComplement.Dest(0, 16, nil); got != 15 {
		t.Errorf("complement(0)=%d want 15", got)
	}
	if got := BitComplement.Dest(5, 16, nil); got != 10 {
		t.Errorf("complement(5)=%d want 10", got)
	}
}

func TestRandomPatternCoversSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[Random.Dest(0, 64, rng)] = true
	}
	if len(seen) < 60 {
		t.Errorf("random pattern hit only %d/64 destinations", len(seen))
	}
}

func TestPatternStrings(t *testing.T) {
	if Random.String() != "random" || BitShuffle.String() != "bit-shuffle" {
		t.Error("pattern names wrong")
	}
}

func TestNewMappingIdentity(t *testing.T) {
	m, err := NewMapping(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range m.EPOf {
		if int(ep) != i {
			t.Fatalf("full mapping should be identity, got %v", m.EPOf)
		}
	}
}

func TestNewMappingUnderSubscription(t *testing.T) {
	m, err := NewMapping(100, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EPOf) != 100 {
		t.Fatalf("ranks %d", len(m.EPOf))
	}
	// Sorted (sequential placement in standard order) and distinct.
	for i := 1; i < len(m.EPOf); i++ {
		if m.EPOf[i-1] >= m.EPOf[i] {
			t.Fatal("mapping not sorted/distinct")
		}
	}
	// Seeded: same seed, same mapping; different seed, different.
	m2, _ := NewMapping(100, 1000, 2)
	m3, _ := NewMapping(100, 1000, 3)
	same2, same3 := true, true
	for i := range m.EPOf {
		if m.EPOf[i] != m2.EPOf[i] {
			same2 = false
		}
		if m.EPOf[i] != m3.EPOf[i] {
			same3 = false
		}
	}
	if !same2 {
		t.Error("same seed produced different mappings")
	}
	if same3 {
		t.Error("different seeds produced identical mappings")
	}
}

func TestNewMappingRejects(t *testing.T) {
	if _, err := NewMapping(0, 10, 1); err == nil {
		t.Error("0 ranks should fail")
	}
	if _, err := NewMapping(11, 10, 1); err == nil {
		t.Error("oversubscription should fail")
	}
}

func TestPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !PowerOfTwo(n) {
			t.Errorf("%d is a power of two", n)
		}
	}
	for _, n := range []int{0, 3, 6, 1000, -4} {
		if PowerOfTwo(n) {
			t.Errorf("%d is not a power of two", n)
		}
	}
}
