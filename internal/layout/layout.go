// Package layout implements the machine-room cost model of §VII: a
// rectilinear grid of cabinets holding two routers each, the
// wire-length model (2 m intra-cabinet, 4 + 2|Δx| + 0.6|Δy| m
// inter-cabinet), the heuristic QAP layout (maximum matching pinned
// intra-cabinet, locality-aware seeding, simulated-annealing cabinet
// swaps), the electrical/optical split and power model, and the
// end-to-end latency analysis against switch latency used in Figure 11.
package layout

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Model constants from §VII.
const (
	// IntraCabinetWire is the length of a wire between the two routers
	// of one cabinet (meters).
	IntraCabinetWire = 2.0
	// InterCabinetBase is the fixed overhead of an inter-cabinet wire
	// (2 m of slack at each end).
	InterCabinetBase = 4.0
	// XPitch and YPitch are the per-grid-step cable lengths (meters).
	XPitch = 2.0
	YPitch = 0.6
	// ElectricalPortW / OpticalPortW are per-port powers (W); optical is
	// 25% higher (Mellanox SB7800 methodology of §VII).
	ElectricalPortW = 3.76
	OpticalPortW    = 4.72
	// DefaultElectricalReach is the longest cable run (meters) served by
	// a passive electrical cable; longer links are optical.
	DefaultElectricalReach = 5.0
	// CableDelayNsPerM is the signal propagation delay (§VII: 5 ns/m).
	CableDelayNsPerM = 5.0
	// LinkGbps is the per-link bandwidth for power/bandwidth reporting.
	LinkGbps = 100.0
)

// Room is a cabinet grid sized for a router count: 2 routers per
// cabinet, y = ⌈√(2c/0.6)⌉ and x = ⌈c/y⌉ so the room is roughly square
// in meters (x steps cost 2 m, y steps 0.6 m).
type Room struct {
	Cabinets int
	X, Y     int
}

// NewRoom sizes the machine room for n routers.
func NewRoom(nRouters int) Room {
	c := (nRouters + 1) / 2
	y := int(math.Ceil(math.Sqrt(2 * float64(c) / 0.6)))
	if y < 1 {
		y = 1
	}
	x := (c + y - 1) / y
	return Room{Cabinets: c, X: x, Y: y}
}

// CabinetPos returns the (x, y) grid coordinates of cabinet i in
// row-major order.
func (r Room) CabinetPos(i int) (int, int) {
	return i / r.Y, i % r.Y
}

// Placement maps routers into cabinets and cabinets onto the grid.
type Placement struct {
	Room  Room
	CabOf []int32 // router -> cabinet
	Slot  []int32 // cabinet -> position index (grid cell, row-major)
}

// WireLength returns the §VII cable length between routers u and v.
func (p *Placement) WireLength(u, v int) float64 {
	cu, cv := p.CabOf[u], p.CabOf[v]
	if cu == cv {
		return IntraCabinetWire
	}
	xu, yu := p.Room.CabinetPos(int(p.Slot[cu]))
	xv, yv := p.Room.CabinetPos(int(p.Slot[cv]))
	return InterCabinetBase + XPitch*math.Abs(float64(xu-xv)) + YPitch*math.Abs(float64(yu-yv))
}

// Options configures the layout heuristic.
type Options struct {
	Seed int64
	// Restarts is the number of independent annealing runs (default 4;
	// run in parallel, best total wire length wins).
	Restarts int
	// Sweeps scales annealing length: proposals = Sweeps · cabinets²
	// capped at 400k per restart (default 12).
	Sweeps int
}

func (o Options) withDefaults() Options {
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.Sweeps == 0 {
		o.Sweeps = 12
	}
	return o
}

// Optimize lays out g in a fresh machine room: a maximal matching of g
// pins matched pairs into shared cabinets (exploiting the cheap 2 m
// intra-cabinet wires, as §VII prescribes), cabinets are seeded in BFS
// order snaking through the grid, and simulated-annealing pairwise
// cabinet swaps minimize total wire length.
func Optimize(g *graph.Graph, opts Options) *Placement {
	opts = opts.withDefaults()
	n := g.N()
	room := NewRoom(n)

	type result struct {
		p    *Placement
		cost float64
	}
	results := make([]result, opts.Restarts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < opts.Restarts; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(opts.Seed + int64(t)*104729))
			p := seedPlacement(g, room, rng)
			cost := anneal(g, p, rng, opts)
			results[t] = result{p, cost}
		}(t)
	}
	wg.Wait()
	best := results[0]
	for _, r := range results[1:] {
		if r.cost < best.cost {
			best = r
		}
	}
	return best.p
}

// newSeededRand centralizes rand construction for the layout package.
func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// seedPlacement matches routers into cabinets and seeds grid slots by a
// BFS traversal snaking through the grid columns.
func seedPlacement(g *graph.Graph, room Room, rng *rand.Rand) *Placement {
	n := g.N()
	// Greedy maximal matching in random order.
	mate := make([]int32, n)
	for i := range mate {
		mate[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if mate[v] >= 0 {
			continue
		}
		for _, off := range rng.Perm(g.Degree(v)) {
			u := g.Neighbors(v)[off]
			if mate[u] < 0 {
				mate[v], mate[u] = u, int32(v)
				break
			}
		}
	}
	// Pair leftovers arbitrarily.
	var single []int32
	for v := 0; v < n; v++ {
		if mate[v] < 0 {
			single = append(single, int32(v))
		}
	}
	for i := 0; i+1 < len(single); i += 2 {
		mate[single[i]], mate[single[i+1]] = single[i+1], single[i]
	}

	cabOf := make([]int32, n)
	for i := range cabOf {
		cabOf[i] = -1
	}
	// Assign cabinets in BFS order from a random start so adjacent
	// routers land in nearby grid cells.
	dist := make([]int32, n)
	queue := make([]int32, n)
	g.BFS(rng.Intn(n), dist, queue)
	// queue now holds BFS order only implicitly; rebuild order by dist.
	orderIdx := rng.Perm(n)
	byDist := make([]int, 0, n)
	for d := int32(0); ; d++ {
		found := false
		for _, v := range orderIdx {
			if dist[v] == d {
				byDist = append(byDist, v)
				found = true
			}
		}
		if !found {
			break
		}
	}
	// Unreachable vertices (disconnected graphs) go last.
	for _, v := range orderIdx {
		if dist[v] < 0 {
			byDist = append(byDist, v)
		}
	}
	var cab int32
	for _, v := range byDist {
		if cabOf[v] >= 0 {
			continue
		}
		cabOf[v] = cab
		if m := mate[v]; m >= 0 && cabOf[m] < 0 {
			cabOf[m] = cab
		}
		cab++
	}
	// Slot i = grid cell i (snake order comes from CabinetPos row-major
	// layout; BFS order already clusters neighbors).
	slot := make([]int32, room.Cabinets)
	for i := range slot {
		slot[i] = int32(i)
	}
	return &Placement{Room: room, CabOf: cabOf, Slot: slot}
}

// anneal improves the placement by randomized cabinet swaps with a
// geometric cooling schedule, returning the final total wire length.
func anneal(g *graph.Graph, p *Placement, rng *rand.Rand, opts Options) float64 {
	nc := p.Room.Cabinets
	if nc < 2 {
		return totalWire(g, p)
	}
	// Routers per cabinet for incremental cost evaluation.
	members := make([][]int32, nc)
	for v := 0; v < g.N(); v++ {
		c := p.CabOf[v]
		members[c] = append(members[c], int32(v))
	}
	cabCost := func(c int32) float64 {
		var s float64
		for _, v := range members[c] {
			for _, u := range g.Neighbors(int(v)) {
				if p.CabOf[u] != c { // intra-cabinet edges are constant
					s += p.WireLength(int(v), int(u))
				}
			}
		}
		return s
	}
	cur := totalWire(g, p)
	proposals := opts.Sweeps * nc * nc
	if proposals > 400000 {
		proposals = 400000
	}
	if proposals < 20000 {
		proposals = 20000
	}
	temp := 8.0
	cool := math.Pow(0.001/temp, 1/float64(proposals))
	for it := 0; it < proposals; it++ {
		a := int32(rng.Intn(nc))
		b := int32(rng.Intn(nc))
		if a == b {
			temp *= cool
			continue
		}
		before := cabCost(a) + cabCost(b)
		p.Slot[a], p.Slot[b] = p.Slot[b], p.Slot[a]
		after := cabCost(a) + cabCost(b)
		delta := after - before
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur += delta
		} else {
			p.Slot[a], p.Slot[b] = p.Slot[b], p.Slot[a] // reject
		}
		temp *= cool
	}
	// Greedy polish: accept only improving swaps.
	for it := 0; it < proposals/4; it++ {
		a := int32(rng.Intn(nc))
		b := int32(rng.Intn(nc))
		if a == b {
			continue
		}
		before := cabCost(a) + cabCost(b)
		p.Slot[a], p.Slot[b] = p.Slot[b], p.Slot[a]
		after := cabCost(a) + cabCost(b)
		if after >= before {
			p.Slot[a], p.Slot[b] = p.Slot[b], p.Slot[a]
		} else {
			cur += after - before
		}
	}
	return totalWire(g, p)
}

// totalWire sums the wire length over all edges.
func totalWire(g *graph.Graph, p *Placement) float64 {
	var s float64
	for _, e := range g.Edges() {
		s += p.WireLength(int(e[0]), int(e[1]))
	}
	return s
}

// WireStats summarizes a laid-out topology (Table II columns).
type WireStats struct {
	Links      int
	AvgWire    float64
	MaxWire    float64
	TotalWire  float64
	Electrical int // links within electrical reach
	Optical    int
	PowerW     float64 // 2 ports/link at 3.76 W (electrical) / 4.72 W (optical)
}

// Stats measures the placement of g using the given electrical reach
// (meters); pass 0 for DefaultElectricalReach.
func Stats(g *graph.Graph, p *Placement, electricalReach float64) WireStats {
	if electricalReach <= 0 {
		electricalReach = DefaultElectricalReach
	}
	ws := WireStats{}
	for _, e := range g.Edges() {
		w := p.WireLength(int(e[0]), int(e[1]))
		ws.Links++
		ws.TotalWire += w
		if w > ws.MaxWire {
			ws.MaxWire = w
		}
		if w <= electricalReach {
			ws.Electrical++
		} else {
			ws.Optical++
		}
	}
	if ws.Links > 0 {
		ws.AvgWire = ws.TotalWire / float64(ws.Links)
	}
	ws.PowerW = 2 * (ElectricalPortW*float64(ws.Electrical) + OpticalPortW*float64(ws.Optical))
	return ws
}

// PowerPerBandwidth returns mW per Gb/s: total power over the bisection
// bandwidth expressed in Gb/s (bisection links × LinkGbps), the §VII
// energy-efficiency metric.
func PowerPerBandwidth(powerW float64, bisectionLinks int) float64 {
	if bisectionLinks <= 0 {
		return math.Inf(1)
	}
	return powerW * 1000 / (float64(bisectionLinks) * LinkGbps)
}

// LatencyStats reports end-to-end packet latency over all router pairs
// for a given switch latency, following Fig. 11's model: latency =
// hops·switchNs + 5 ns/m · path wire length, minimized over hop-optimal
// paths.
type LatencyStats struct {
	AvgNs float64
	MaxNs float64
}

// PathLatency computes average and maximum end-to-end latency across
// all ordered router pairs. For each pair the wire length is minimized
// over the hop-shortest paths (DP over the BFS DAG), matching how a
// latency-aware minimal router would behave. It is Profile evaluated
// at one switch latency.
func PathLatency(g *graph.Graph, p *Placement, switchNs float64) LatencyStats {
	return Profile(g, p).Latency(switchNs)
}

// PathProfile captures per-pair (hops, wire) aggregates so latency can
// be evaluated at any switch latency without repeating the all-pairs
// sweep: latency(s) = hops·s + 5·wire, so the average is linear in s
// and the maximum is the upper envelope of the Pareto-maximal (hops,
// wire) pairs.
type PathProfile struct {
	Pairs    int64
	SumHops  float64
	SumWire  float64
	envelope [][2]float64 // Pareto-maximal (hops, wire) points
}

// Latency evaluates the profile at a switch latency (ns).
func (pp *PathProfile) Latency(switchNs float64) LatencyStats {
	if pp.Pairs == 0 {
		return LatencyStats{}
	}
	avg := switchNs*pp.SumHops/float64(pp.Pairs) + CableDelayNsPerM*pp.SumWire/float64(pp.Pairs)
	var max float64
	for _, hw := range pp.envelope {
		if l := switchNs*hw[0] + CableDelayNsPerM*hw[1]; l > max {
			max = l
		}
	}
	return LatencyStats{AvgNs: avg, MaxNs: max}
}

// Profile runs the all-pairs hop/wire sweep once and returns a
// reusable profile. Sources run in parallel, but their sums fold in
// source order, so every bit of the profile is the same for every call
// and every GOMAXPROCS.
func Profile(g *graph.Graph, p *Placement) *PathProfile {
	n := g.N()
	pp := &PathProfile{}
	if n < 2 {
		return pp
	}
	per := make([]PathProfile, n) // per source, folded in order below
	graph.EachSource(n, func() func(int) {
		dist := make([]int32, n)
		queue := make([]int32, n)
		wire := make([]float64, n)
		return func(s int) {
			g.BFS(s, dist, queue)
			minWireDP(g, p, s, dist, wire)
			var ps PathProfile // local, stored once: no false sharing
			for v := 0; v < n; v++ {
				if v == s || dist[v] < 0 {
					continue
				}
				h, wl := float64(dist[v]), wire[v]
				ps.Pairs++
				ps.SumHops += h
				ps.SumWire += wl
				ps.envelope = addPareto(ps.envelope, h, wl)
			}
			per[s] = ps
		}
	})
	for _, ps := range per {
		pp.Pairs += ps.Pairs
		pp.SumHops += ps.SumHops
		pp.SumWire += ps.SumWire
		for _, hw := range ps.envelope {
			pp.envelope = addPareto(pp.envelope, hw[0], hw[1])
		}
	}
	return pp
}

// addPareto maintains the set of points not dominated in both
// coordinates (bigger is "worse"/kept); the set stays tiny because hop
// counts are small integers.
func addPareto(set [][2]float64, h, w float64) [][2]float64 {
	for _, hw := range set {
		if hw[0] >= h && hw[1] >= w {
			return set // dominated
		}
	}
	out := set[:0]
	for _, hw := range set {
		if !(h >= hw[0] && w >= hw[1]) {
			out = append(out, hw)
		}
	}
	return append(out, [2]float64{h, w})
}

// minWireDP fills wire[v] with the minimum total cable length over
// hop-shortest paths from s (DP over the BFS level DAG).
func minWireDP(g *graph.Graph, p *Placement, s int, dist []int32, wire []float64) {
	n := g.N()
	for v := 0; v < n; v++ {
		wire[v] = math.Inf(1)
	}
	wire[s] = 0
	maxd := int32(0)
	for _, d := range dist {
		if d > maxd {
			maxd = d
		}
	}
	for d := int32(1); d <= maxd; d++ {
		for v := 0; v < n; v++ {
			if dist[v] != d {
				continue
			}
			best := math.Inf(1)
			for _, u := range g.Neighbors(v) {
				if dist[u] == d-1 {
					if c := wire[u] + p.WireLength(int(u), v); c < best {
						best = c
					}
				}
			}
			wire[v] = best
		}
	}
}

// SequentialPlacement places routers into cabinets in index order with
// no optimization — the natural layout for topologies like SkyWalk that
// are generated around fixed physical positions.
func SequentialPlacement(nRouters int) *Placement {
	room := NewRoom(nRouters)
	cabOf := make([]int32, nRouters)
	for v := 0; v < nRouters; v++ {
		cabOf[v] = int32(v / 2)
	}
	slot := make([]int32, room.Cabinets)
	for i := range slot {
		slot[i] = int32(i)
	}
	return &Placement{Room: room, CabOf: cabOf, Slot: slot}
}

// RouterDistance returns the physical cable distance between the
// cabinet positions of routers u and v under the placement — the
// distance function handed to the SkyWalk generator.
func (p *Placement) RouterDistance(u, v int) float64 {
	return p.WireLength(u, v)
}

// Validate checks structural consistency of a placement.
func (p *Placement) Validate(n int) error {
	if len(p.CabOf) != n {
		return fmt.Errorf("layout: CabOf has %d entries for %d routers", len(p.CabOf), n)
	}
	count := make([]int, p.Room.Cabinets)
	for v, c := range p.CabOf {
		if c < 0 || int(c) >= p.Room.Cabinets {
			return fmt.Errorf("layout: router %d in invalid cabinet %d", v, c)
		}
		count[c]++
	}
	for c, k := range count {
		if k > 2 {
			return fmt.Errorf("layout: cabinet %d holds %d routers", c, k)
		}
	}
	seen := make([]bool, p.Room.X*p.Room.Y)
	for c, s := range p.Slot {
		if s < 0 || int(s) >= len(seen) {
			return fmt.Errorf("layout: cabinet %d in invalid slot %d", c, s)
		}
		if seen[s] {
			return fmt.Errorf("layout: slot %d used twice", s)
		}
		seen[s] = true
	}
	return nil
}
