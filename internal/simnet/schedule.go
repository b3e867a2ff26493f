package simnet

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Timed topology events (SetSchedule): the live-topology half of
// the simulator. A scheduled run owns one liveTopo — the link/router
// masks plus the live routing table — and applies each fault.Change to
// its masks exactly once, in schedule order, between drains of the run
// loop (fault.EdgeCursor ends drain windows at change cycles so none
// spans a change). The live table is a function of the set of down
// links, derived lazily: at most once per drain, and only before a
// drain that has events to route. The live state an event at cycle t
// observes is therefore a pure function of (schedule, t) whatever the
// shard count. See DESIGN.md §10.

// liveTopo is the run-local live topology of a scheduled run. Every
// shard aliases the Network's liveTopo, which is written only between
// drains, while no shard runs, and read-only during them — the same
// contract as the routing table's concurrent-reader guarantee.
type liveTopo struct {
	sched fault.Schedule
	g     *graph.Graph
	// deadRun extends the static dead mask with scheduled
	// kills/revivals; downPort[r][slot] marks a cut link in each
	// direction.
	deadRun  []bool
	downPort [][]bool
	// base is the pristine instance table, the live table whenever no
	// link is down. tbl is the table derived at the latest drain that
	// needed one: base itself, or base.Repair of exactly the links that
	// were down then. stale marks that a change has flipped a link mask
	// since.
	base  *routing.Table
	tbl   *routing.Table
	stale bool
	// peak is the largest MemoryBytes of a run-local table tbl has
	// held and given up; memoryBytes folds in the current one.
	peak int64
}

// newLiveTopo builds the live state of a fresh scheduled run: masks
// start from the static configuration, the table from the pristine
// instance table.
func newLiveTopo(nw *Network) *liveTopo {
	lt := &liveTopo{
		sched:    nw.run.sched,
		g:        nw.cfg.Topo,
		deadRun:  make([]bool, nw.n),
		downPort: make([][]bool, nw.n),
		base:     nw.table,
		tbl:      nw.table,
	}
	if nw.run.dead != nil {
		copy(lt.deadRun, nw.run.dead)
	}
	for r := 0; r < nw.n; r++ {
		lt.downPort[r] = make([]bool, nw.cfg.Topo.Degree(r))
	}
	return lt
}

// port returns the port slot of router r facing neighbor w.
func (lt *liveTopo) port(r, w int32) int {
	slot, _ := slices.BinarySearch(lt.g.Neighbors(int(r)), w)
	return slot
}

// linkUp reports whether link e is currently up.
func (lt *liveTopo) linkUp(e [2]int32) bool {
	return !lt.downPort[e[0]][lt.port(e[0], e[1])]
}

// setLink marks both directions of link e up or down.
func (lt *liveTopo) setLink(e [2]int32, up bool) {
	lt.downPort[e[0]][lt.port(e[0], e[1])] = !up
	lt.downPort[e[1]][lt.port(e[1], e[0])] = !up
}

// apply fires schedule change ci on the masks. Cuts and kills apply
// before restores and revivals (Change's contract); cutting a down
// link or restoring an up one is a documented no-op. A change that
// flips a link mask marks the live table stale; derive rebuilds it
// before the next drain that routes traffic.
func (lt *liveTopo) apply(ci int) {
	ch := &lt.sched[ci]
	for _, e := range ch.Cut {
		if lt.linkUp(e) {
			lt.setLink(e, false)
			lt.stale = true
		}
	}
	for _, r := range ch.Kill {
		lt.deadRun[r] = true
	}
	for _, e := range ch.Restore {
		if !lt.linkUp(e) {
			lt.setLink(e, true)
			lt.stale = true
		}
	}
	for _, r := range ch.Revive {
		lt.deadRun[r] = false
	}
}

// derive brings a stale live table up to date: the pristine table when
// no link is down, otherwise one base.Repair of the down links, read
// off the masks in CSR order (u < v).
func (lt *liveTopo) derive() {
	lt.stale = false
	var down [][2]int32
	for u := range lt.downPort {
		for slot, w := range lt.g.Neighbors(u) {
			if int32(u) < w && lt.downPort[u][slot] {
				down = append(down, [2]int32{int32(u), w})
			}
		}
	}
	if lt.tbl != lt.base {
		lt.peak = max(lt.peak, lt.tbl.MemoryBytes())
	}
	lt.tbl = lt.base
	if len(down) > 0 {
		lt.tbl = lt.base.Repair(down)
	}
}

// memoryBytes is the live state's contribution to the run's working
// set: the masks, plus the largest run-local table the run held —
// Repair returns a table the length-based accounting would otherwise
// never see, and its MemoryBytes counts every row, including those it
// shares with base. A run that never derived one (every change fell
// after its last event, or left no link down) counts the masks only.
func (lt *liveTopo) memoryBytes() int64 {
	b := int64(len(lt.deadRun))
	for _, dp := range lt.downPort {
		b += int64(len(dp))
	}
	peak := lt.peak
	if lt.tbl != lt.base {
		peak = max(peak, lt.tbl.MemoryBytes())
	}
	return b + peak
}

// deadNow reports whether router r is failed at this instant of the
// run: the live mask when a schedule is active, the static mask
// otherwise.
func (nw *Network) deadNow(r int32) bool {
	if nw.live != nil {
		return nw.live.deadRun[r]
	}
	return nw.run.dead != nil && nw.run.dead[r]
}

// applyTopo applies schedule change ci at cycle now to the live masks
// and fires the boundary hook. The run loop calls it between drains.
func (nw *Network) applyTopo(ci int, now int64) {
	nw.live.apply(ci)
	if nw.onTopo != nil {
		nw.onTopo(now)
	}
}

// publishTable derives a stale live table and re-points every shard's
// fast-path table at it. The run loop calls it between drains, just
// before a drain that has events to route.
func (nw *Network) publishTable() {
	nw.live.derive()
	nw.tbl = nw.live.tbl
	for _, sh := range nw.shards {
		sh.tbl = nw.live.tbl
	}
	if nw.onPublish != nil {
		nw.onPublish()
	}
}

// inFlight returns the packets currently in this Network view — the
// third term of the conservation invariant
// Offered == Delivered + dropRun + inFlight, which holds over a run's
// shards at every point between drains (the schedule tests enforce it
// via onTopo). For a whole run, sum over shards: see conservation.
func (nw *Network) inFlight() int { return len(nw.packets) - len(nw.free) }

// conservation returns the run's aggregate (offered, delivered,
// dropped, in-flight) message counts, summed over its shards. The sums
// are exact between drains and after the run — the only moments the
// run loop (or a test hook it calls) can observe them — because no
// shard is running there and every cross-shard handoff has been
// absorbed, so each packet lives in exactly one arena.
func (nw *Network) conservation() (offered, delivered, dropped, inFlight int) {
	for _, sh := range nw.shards {
		offered += sh.stats.Offered
		delivered += sh.stats.Delivered
		dropped += sh.dropRun
		inFlight += sh.inFlight()
	}
	return
}
