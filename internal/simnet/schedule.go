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
// it exactly once, in schedule order, between drains of the run loop
// (fault.EdgeCursor ends drain windows at change cycles so none spans
// a change). The live state an event at cycle t observes is therefore
// a pure function of (schedule, t) whatever the shard count. See
// DESIGN.md §10.

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
	// tbl is the live routing table after the latest applied change:
	// it starts as the pristine instance table and is replaced
	// (Repair/Restore) at each change, so it always routes the base
	// topology minus exactly the currently-down links.
	tbl *routing.Table
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

// apply fires schedule change ci. Cuts and kills apply before restores
// and revivals (Change's contract), and each list is filtered to its
// effective delta — cutting a down link or restoring an up one is a
// documented no-op — so the live table's graph always equals the base
// topology minus exactly the currently-down links. A non-empty delta
// replaces the live table: Repair for the cut links, then Restore for
// the restored ones, each a rebuild over the changed graph that shares
// every row the change leaves unchanged.
func (lt *liveTopo) apply(ci int) {
	ch := &lt.sched[ci]
	var cut [][2]int32
	for _, e := range ch.Cut {
		if lt.linkUp(e) {
			lt.setLink(e, false)
			cut = append(cut, e)
		}
	}
	for _, r := range ch.Kill {
		lt.deadRun[r] = true
	}
	var restore [][2]int32
	for _, e := range ch.Restore {
		if !lt.linkUp(e) {
			lt.setLink(e, true)
			restore = append(restore, e)
		}
	}
	for _, r := range ch.Revive {
		lt.deadRun[r] = false
	}
	if len(cut) > 0 {
		lt.tbl = lt.tbl.Repair(cut)
	}
	if len(restore) > 0 {
		lt.tbl = lt.tbl.Restore(restore)
	}
}

// memoryBytes is the live state's contribution to the run's working
// set: the masks, plus the live table when a change has actually
// replaced the pristine instance table (base). Repair/Restore return
// that table as a second run-local one, which the length-based
// accounting would otherwise never see; its MemoryBytes counts every
// row, including those it shares with base.
func (lt *liveTopo) memoryBytes(base *routing.Table) int64 {
	b := int64(len(lt.deadRun))
	for _, dp := range lt.downPort {
		b += int64(len(dp))
	}
	if lt.tbl != base {
		b += lt.tbl.MemoryBytes()
	}
	return b
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

// applyTopo applies schedule change ci at cycle now: mutate the live
// topology, re-sync the run's fast-path table pointer, and fire the
// boundary hook. The run loop calls it between drains and then
// re-points each shard's table too.
func (nw *Network) applyTopo(ci int, now int64) {
	nw.live.apply(ci)
	nw.tbl = nw.live.tbl
	if nw.onTopo != nil {
		nw.onTopo(now)
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
