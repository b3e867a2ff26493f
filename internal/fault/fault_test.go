package fault

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

func TestPlanDeterministic(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	for _, kind := range []Kind{Links, Routers, Regions} {
		p := Plan{Kind: kind, Fraction: 0.2, Seed: 99}
		a := p.Apply(inst.G)
		b := p.Apply(inst.G)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same plan produced different outcomes", kind)
		}
		c := Plan{Kind: kind, Fraction: 0.2, Seed: 100}.Apply(inst.G)
		if reflect.DeepEqual(a.Removed, c.Removed) {
			t.Errorf("%s: different seeds produced identical damage", kind)
		}
	}
}

func TestLinksPlanCounts(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	out := Plan{Kind: Links, Fraction: 0.25, Seed: 1}.Apply(inst.G)
	want := int(0.25 * float64(inst.G.M()))
	if len(out.Removed) != want {
		t.Fatalf("removed %d links, want %d", len(out.Removed), want)
	}
	if out.DeadRouters != nil || out.NumDead != 0 {
		t.Fatal("link plan must not kill routers")
	}
	g := inst.G.RemoveEdges(out.Removed)
	if g.N() != inst.G.N() {
		t.Fatalf("vertex set changed: %d -> %d", inst.G.N(), g.N())
	}
	if g.M() != inst.G.M()-want {
		t.Fatalf("damaged graph has %d links, want %d", g.M(), inst.G.M()-want)
	}
}

func TestRoutersPlanIsolatesDeadRouters(t *testing.T) {
	inst := topo.MustSlimFly(9)
	out := Plan{Kind: Routers, Fraction: 0.1, Seed: 5}.Apply(inst.G)
	wantDead := int(0.1 * float64(inst.G.N()))
	if out.NumDead != wantDead {
		t.Fatalf("killed %d routers, want %d", out.NumDead, wantDead)
	}
	g := inst.G.RemoveEdges(out.Removed)
	for v, dead := range out.DeadRouters {
		if dead && g.Degree(v) != 0 {
			t.Fatalf("dead router %d still has %d links", v, g.Degree(v))
		}
		if !dead && g.Degree(v) == 0 && inst.G.Degree(v) > 0 {
			// A live router can only be isolated if every neighbor died.
			for _, w := range inst.G.Neighbors(v) {
				if !out.DeadRouters[w] {
					t.Fatalf("live router %d lost its link to live router %d", v, w)
				}
			}
		}
	}
}

func TestRegionsPlanKillsContiguousBlocks(t *testing.T) {
	inst := topo.MustLPS(11, 7) // 168 routers
	const size = 8
	out := Plan{Kind: Regions, Fraction: 0.25, RegionSize: size, Seed: 2}.Apply(inst.G)
	regions := inst.G.N() / size
	wantRegions := int(0.25 * float64(regions))
	if out.NumDead != wantRegions*size {
		t.Fatalf("killed %d routers, want %d (whole regions only)", out.NumDead, wantRegions*size)
	}
	// Death must be region-aligned: within each block of size routers,
	// either all are dead or none.
	for r := 0; r < regions; r++ {
		dead := 0
		for v := r * size; v < (r+1)*size; v++ {
			if out.DeadRouters[v] {
				dead++
			}
		}
		if dead != 0 && dead != size {
			t.Fatalf("region %d partially dead (%d/%d)", r, dead, size)
		}
	}
}

func TestZeroPlanIsNoOp(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	out := Plan{}.Apply(inst.G)
	if len(out.Removed) != 0 || out.NumDead != 0 {
		t.Fatalf("zero plan did damage: %+v", out)
	}
	if g := inst.G.RemoveEdges(out.Removed); g.M() != inst.G.M() {
		t.Fatal("no-op damage changed the graph")
	}
}

// TestApplyRejectsBadFraction pins Apply's own range panic, NaN
// included, rather than a failure deeper in the samplers.
func TestApplyRejectsBadFraction(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	for _, kind := range []Kind{Links, Routers, Regions} {
		for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "out of [0,1]") {
						t.Errorf("kind %d fraction %v: recovered %v, want the range panic", kind, frac, r)
					}
				}()
				Plan{Kind: kind, Fraction: frac}.Apply(inst.G)
			}()
		}
	}
}

func TestRemoveEdgesIgnoresNonEdges(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	out := g.RemoveEdges([][2]int32{{2, 1}, {0, 3}}) // one real (reversed), one non-edge
	if out.M() != 1 || !out.HasEdge(0, 1) || out.HasEdge(1, 2) {
		t.Fatalf("unexpected damaged graph: m=%d", out.M())
	}
}

// TestSampleLinks: the sampler removes exactly ⌊fraction·M⌋ distinct
// links of the graph, from none at 0 to all at 1.
func TestSampleLinks(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	rng := rand.New(rand.NewSource(42))
	for _, f := range []float64{0, 0.3, 1} {
		removed := SampleLinks(g, f, rng)
		if want := int(f * float64(g.M())); len(removed) != want {
			t.Fatalf("fraction %v: sampled %d links, want %d", f, len(removed), want)
		}
		seen := map[[2]int32]bool{}
		for _, e := range removed {
			if seen[e] || !g.HasEdge(int(e[0]), int(e[1])) {
				t.Fatalf("fraction %v: %v is repeated or not a link", f, e)
			}
			seen[e] = true
		}
		if h := g.RemoveEdges(removed); h.N() != g.N() || h.M() != g.M()-len(removed) {
			t.Fatalf("fraction %v: damaged graph n=%d m=%d", f, h.N(), h.M())
		}
	}
}

// TestSampleLinksDeterministicPerSeed: the sample is a function of the
// rng state alone, and a Links plan draws the same sample from its
// seed.
func TestSampleLinksDeterministicPerSeed(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	a := SampleLinks(g, 0.5, rand.New(rand.NewSource(7)))
	b := SampleLinks(g, 0.5, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed sampled different links")
	}
	if out := (Plan{Kind: Links, Fraction: 0.5, Seed: 7}).Apply(g); !reflect.DeepEqual(out.Removed, a) {
		t.Fatal("Links plan sampled differently from SampleLinks on its seed")
	}
}

// TestSampleLinksRejectsBadFraction pins the sampler's own range
// panic, NaN included.
func TestSampleLinksRejectsBadFraction(t *testing.T) {
	g := topo.MustLPS(11, 7).G
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "out of [0,1]") {
					t.Errorf("fraction %v: recovered %v, want the range panic", f, r)
				}
			}()
			SampleLinks(g, f, rand.New(rand.NewSource(1)))
		}()
	}
}
