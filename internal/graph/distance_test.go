package graph

import "testing"

func TestDistanceHistogramCycle(t *testing.T) {
	// C8: each vertex sees 2 vertices at distances 1..3 and one at 4.
	hist, unreach := ring(8).DistanceHistogram()
	if unreach != 0 {
		t.Fatalf("unreachable %d", unreach)
	}
	want := []int64{0, 16, 16, 16, 8}
	if len(hist) != len(want) {
		t.Fatalf("hist %v want %v", hist, want)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist %v want %v", hist, want)
		}
	}
}

func TestDistanceHistogramTotals(t *testing.T) {
	g := grid(4, 5)
	hist, unreach := g.DistanceHistogram()
	var total int64
	for _, c := range hist {
		total += c
	}
	n := int64(g.N())
	if total+unreach != n*(n-1) {
		t.Fatalf("pairs %d + unreachable %d != %d", total, unreach, n*(n-1))
	}
}

func TestDistanceHistogramDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	_, unreach := b.Build().DistanceHistogram()
	if unreach != 8 {
		t.Fatalf("unreachable %d want 8", unreach)
	}
}

func TestTailFraction(t *testing.T) {
	hist := []int64{0, 10, 60, 25, 5}
	if f := TailFraction(hist, 2); f != 0.30 {
		t.Errorf("tail(>2) = %v want 0.30", f)
	}
	if f := TailFraction(hist, 4); f != 0 {
		t.Errorf("tail beyond max = %v want 0", f)
	}
	if f := TailFraction(nil, 1); f != 0 {
		t.Errorf("empty hist tail = %v", f)
	}
}

func TestBallSizes(t *testing.T) {
	// C10 from any vertex: |B(v,r)| = 1, 3, 5, 7, 9, 10, 10...
	g := ring(10)
	sizes := g.BallSizes(0, 6)
	want := []int{1, 3, 5, 7, 9, 10, 10}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("ball sizes %v want %v", sizes, want)
		}
	}
}
