package simnet

import (
	"math"
	"sync"

	"repro/internal/partition"
	"repro/internal/routing"
)

// This file is the run loop of every simulation: RunLoad, RunLoadTimed
// and RunBatches all run here, on P = parWorkers() shards (DESIGN.md
// §10).
//
// One discipline makes a run's statistics a pure function of the
// seed, whatever P is. Events pop in (time, canonical key) order, where
// the key is the message's stable identity — srcEP·msgs + draw index
// for packet events, the same form offset past the packet ids for
// injection-cursor events, the message index for RunBatches — never a
// push counter. Every packet draws its routing randomness (next hops,
// Valiant intermediates) from a private SplitMix64 stream seeded by
// that identity, not from a shared generator. Events at one router
// touch only that router's ports and its endpoints' NIC and cursor
// state, so the order of events at each router — and with it port
// contention, adaptive decisions, everything — is the same for every
// router partition. Statistics fold exactly: counters sum, extrema
// take the max, and latencies merge as histograms.
//
// P = 1 is the Network itself: no goroutines, no barriers, no second
// view. For P >= 2, partition.KWay splits the routers into P parts
// (recursive multilevel bisection keeps the cut, and with it the
// handoff traffic, low). Each shard is a Network view that owns the
// routers of its part and every endpoint attached to them: it has a
// private scheduler, packet arena, digests and counters, while the
// port/NIC/injection-cursor arrays are shared with owner-only writes.
// Time advances in lock-step windows of the model's intrinsic
// lookahead L = RouterLatency + PacketFlits + (the smallest wire
// latency over links crossing the shard cut): a hop scheduled while
// handling an event at time t arrives no earlier than t + L when it
// crosses shards (only router-to-router hops can), so during the window
// [T, T+L) every cross-shard arrival lands at or beyond T+L. Each
// round the run loop picks T as the global earliest pending event,
// every shard drains events before T+L, and at the barrier every shard
// absorbs the arrivals other shards queued for it (their keys, not the
// merge order, decide where they pop).
//
// A timed topology schedule (Config.Schedule) rides on the same loop
// for every P: a fault.EdgeCursor ends every drain at the next change
// cycle (for P = 1 that is the only window end), and a change at cycle
// C applies between drains once the earliest pending event has reached
// C — every event before C has drained, every event at or after C sees
// the new state. Applying it mutates the shared liveTopo and re-points
// each shard's table (applyTopo, schedule.go); the onTopo hook checks
// the conservation invariant there, where the per-shard counters sum
// exactly.

// xmsg is one cross-shard packet handoff: the arrival event (with the
// canonical key already in e.seq) and the packet by value, routing
// stream included. The receiving shard reallocates the packet in its
// own arena and rewrites e.pkt.
type xmsg struct {
	e event
	p packet
}

// kwayCache memoizes shard assignments per worker count for one
// topology instance (shared across clones, like the routing table).
type kwayCache struct {
	mu sync.Mutex
	m  map[int][]int32
}

// minShardRouters caps the shard count so no shard degenerates below a
// few routers (the barrier overhead would swamp the win long before).
const minShardRouters = 4

// parWorkers resolves Config.Workers to the run's shard count.
// Configurations shards cannot express run on one: UGAL-G samples
// backlog along whole paths (remote shards' port state), and finite
// buffers write backpressure into the upstream shard's ports. Either
// way the run takes the same code path and gives the same statistics.
func (nw *Network) parWorkers() int {
	w := nw.cfg.Workers
	if w <= 1 {
		return 1
	}
	if nw.cfg.Policy == routing.UGALG || nw.cfg.BufferPackets > 0 {
		return 1
	}
	if most := nw.n / minShardRouters; w > most {
		w = most
	}
	if w <= 1 {
		return 1
	}
	return w
}

// minCutLatency returns the smallest wire latency over links whose
// endpoints live in different shards — the link term of the PDES
// lookahead. Only router-to-router hops cross shards (injections and
// deliveries are shard-local by construction), so this is the tight
// safe bound; with a uniform latency it is exactly cfg.LinkLatency.
// The bound depends on the shard map, but results do not: windows only
// decide where barriers fall, and each router's event order is
// (time, canonical key) regardless of barrier placement.
func (nw *Network) minCutLatency(shardOf []int32) int64 {
	if nw.lats == nil {
		return nw.cfg.LinkLatency
	}
	min := int64(math.MaxInt64)
	for r := 0; r < nw.n; r++ {
		for slot, w := range nw.cfg.Topo.Neighbors(r) {
			if shardOf[r] != shardOf[w] && nw.lats.Port[r][slot] < min {
				min = nw.lats.Port[r][slot]
			}
		}
	}
	if min == math.MaxInt64 {
		// No cross-shard link at all: no handoff ever crosses a window,
		// so any positive bound is safe.
		return nw.cfg.LinkLatency
	}
	return min
}

// shardAssign returns the memoized KWay router-to-shard map for the
// given worker count.
func (nw *Network) shardAssign(workers int) []int32 {
	c := nw.kways
	if c == nil {
		// Hand-constructed Network (tests): no cache to share.
		return partition.KWay(nw.cfg.Topo, workers, partition.Options{Seed: 0x5f3759df, Trials: 2})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.m[workers]; ok {
		return a
	}
	a := partition.KWay(nw.cfg.Topo, workers, partition.Options{Seed: 0x5f3759df, Trials: 2})
	if c.m == nil {
		c.m = make(map[int][]int32)
	}
	c.m[workers] = a
	return a
}

// begin resets the run state and returns the run's shards: the
// Network itself when parWorkers is 1, otherwise views kept across
// runs, each reset to alias the shared run state.
func (nw *Network) begin(pattern PatternFunc, tpattern TimedPatternFunc, meanGap float64, msgsPerEP int) []*Network {
	nw.reset()
	nw.pattern, nw.tpattern, nw.meanGap = pattern, tpattern, meanGap
	nw.msgs = int64(msgsPerEP)
	nw.injBase = int64(nw.nep) * nw.msgs
	p := nw.parWorkers()
	if p == 1 {
		nw.shards = []*Network{nw}
		return nw.shards
	}
	shardOf := nw.shardAssign(p)
	if len(nw.views) != p {
		nw.views = make([]*Network, p)
		for s := range nw.views {
			nw.views[s] = &Network{out: make([][]xmsg, p)}
		}
	}
	for s, sh := range nw.views {
		sh.cfg, sh.table, sh.tbl, sh.live = nw.cfg, nw.table, nw.tbl, nw.live
		sh.n, sh.nep, sh.dead, sh.lats, sh.tenants = nw.n, nw.nep, nw.dead, nw.lats, nw.tenants
		sh.portFree, sh.injFree, sh.ejFree, sh.gens = nw.portFree, nw.injFree, nw.ejFree, nw.gens
		sh.pattern, sh.tpattern, sh.meanGap = pattern, tpattern, meanGap
		sh.msgs, sh.injBase = nw.msgs, nw.injBase
		sh.shardOf, sh.shardID = shardOf, int32(s)
		sh.resetShard()
	}
	nw.shardOf = shardOf
	nw.shards = nw.views
	return nw.shards
}

// ownerOf returns the shard of the current run that owns router r.
func (nw *Network) ownerOf(r int32) *Network {
	if nw.shardOf == nil {
		return nw
	}
	return nw.shards[nw.shardOf[r]]
}

// recv absorbs one cross-shard handoff into this shard's arena and
// scheduler. e.seq already carries the canonical key, so where the
// message came from cannot influence pop order.
func (nw *Network) recv(x xmsg) {
	e := x.e
	e.pkt = nw.newPacket(x.p)
	nw.sched.push(e)
}

// drainUntil handles every queued event with time < end, loading each
// arriving packet's routing stream into pktSrc around its handling.
func (nw *Network) drainUntil(end int64) {
	for {
		e, ok := nw.sched.popBefore(end)
		if !ok {
			return
		}
		if e.kind != evArrive {
			nw.handle(e)
			continue
		}
		nw.pktSrc.state = nw.packets[e.pkt].rng
		nw.handle(e)
		// Harmless if the packet was delivered, dropped or handed off
		// (the slot is then free and the state unread).
		nw.packets[e.pkt].rng = nw.pktSrc.state
	}
}

// drive runs the current run's shards until no event is pending,
// applying timed topology changes between drains. One shard drains in
// place up to the next change cycle; several drain windows of the
// lookahead on persistent goroutines (startShards).
func (nw *Network) drive() {
	shards := nw.shards
	drain := nw.drainUntil
	var lookahead int64
	if len(shards) > 1 {
		lookahead = nw.cfg.RouterLatency + nw.cfg.PacketFlits + nw.minCutLatency(nw.shardOf)
		var stop func()
		drain, stop = nw.startShards()
		defer stop()
	}
	edges := nw.cfg.Schedule.Cursor()
	for {
		next := int64(math.MaxInt64)
		for _, sh := range shards {
			next = min(next, sh.sched.peekTime())
		}
		// Apply every change due at or before the global earliest
		// pending event: everything before it has drained and no shard
		// is running. When the event stream has dried up (next ==
		// MaxInt64) this applies the schedule's tail.
		for {
			ci, ok := edges.Due(next)
			if !ok {
				break
			}
			nw.applyTopo(ci, nw.cfg.Schedule[ci].Cycle)
			for _, sh := range shards {
				sh.tbl = nw.tbl
			}
		}
		if next == math.MaxInt64 {
			return
		}
		end := int64(math.MaxInt64)
		if len(shards) > 1 {
			end = next + lookahead
		}
		if c, ok := edges.Peek(); ok && c < end {
			// End the window at the next change cycle: events in
			// [next, c) drain now, the change applies before anything at
			// or beyond c runs. Due consumed every change at or before
			// next, so c > next and the window is never empty.
			end = c
		}
		drain(end)
	}
}

// startShards starts one goroutine per shard and returns the window
// step — every shard drains the events before end, then absorbs the
// handoffs the others queued for it — and the func that stops them.
// Outboxes written in a drain phase are read only in the following
// merge phase and reset by their owner at the start of the next drain
// phase; the done-channel round trips order every transition.
func (nw *Network) startShards() (step func(end int64), stop func()) {
	shards := nw.shards
	drainCh := make([]chan int64, len(shards))
	mergeCh := make([]chan struct{}, len(shards))
	doneCh := make(chan struct{}, len(shards))
	for s, sh := range shards {
		drainCh[s] = make(chan int64, 1)
		mergeCh[s] = make(chan struct{}, 1)
		go func() {
			for end := range drainCh[s] {
				for j := range sh.out {
					sh.out[j] = sh.out[j][:0]
				}
				sh.drainUntil(end)
				doneCh <- struct{}{}
				<-mergeCh[s]
				for _, src := range shards {
					for _, x := range src.out[s] {
						sh.recv(x)
					}
				}
				doneCh <- struct{}{}
			}
		}()
	}
	step = func(end int64) {
		for _, ch := range drainCh {
			ch <- end
		}
		for range shards {
			<-doneCh
		}
		for _, ch := range mergeCh {
			ch <- struct{}{}
		}
		for range shards {
			<-doneCh
		}
	}
	stop = func() {
		for _, ch := range drainCh {
			close(ch)
		}
	}
	return step, stop
}

// fold combines the shards' statistics into the run's Stats. Counters
// sum, extrema take the max, and latency histograms merge by addition,
// so every statistic — mean, P99, per-tenant rows — is exact and the
// same for every shard count.
func (nw *Network) fold() Stats {
	shards := nw.shards
	st := Stats{}
	for _, sh := range shards {
		st.Offered += sh.stats.Offered
		st.Delivered += sh.stats.Delivered
		st.TotalHops += sh.stats.TotalHops
		st.ValiantTaken += sh.stats.ValiantTaken
		st.PatternSkips += sh.stats.PatternSkips
		st.SeveredInFlight += sh.stats.SeveredInFlight
		st.MaxLatency = max(st.MaxLatency, sh.stats.MaxLatency)
		st.Makespan = max(st.Makespan, sh.stats.Makespan)
		st.MaxVC = max(st.MaxVC, sh.stats.MaxVC)
	}
	st.MemoryBytes = nw.MemoryBytes()
	if len(shards) > 1 {
		// The Network's own digests are not a shard's here: fold into
		// them.
		nw.lat.reset()
		nw.resetTenants()
		for _, sh := range shards {
			nw.lat.merge(&sh.lat)
			for t := range nw.tenStats {
				nw.tenStats[t].Offered += sh.tenStats[t].Offered
				nw.tenStats[t].Delivered += sh.tenStats[t].Delivered
				nw.tenLat[t].merge(&sh.tenLat[t])
			}
		}
	}
	st.Dropped = st.Offered - st.Delivered
	if nw.lat.count > 0 {
		st.MeanLatency = nw.lat.mean()
		st.MeanHops = float64(st.TotalHops) / float64(nw.lat.count)
		st.P99Latency = nw.lat.quantile(0.99)
	}
	st.Tenants = nw.finalizeTenants()
	nw.stats = st
	return st
}
