// Package simnet is the cycle-accounted network simulator standing in
// for SST/macro's SNAPPR model (§VI-A; substitution documented in
// DESIGN.md). It is an event-driven, store-and-forward, output-queued
// model: every router output port and every NIC injection/ejection port
// transmits one flit per cycle, packets occupy ports for their full
// serialization time, and links add fixed latency. Offered load is
// realized by Poisson (exponential inter-arrival) injection at each
// endpoint, exactly as the paper describes ("we inject messages with
// varying delays by simulating a Poisson process").
//
// UGAL-L is implemented with genuinely local information: the source
// router compares the backlog of the minimal-path and Valiant-path
// output ports (queue length × remaining hop count) and picks the
// smaller, matching §V's description of the UGAL-L variant.
//
// The model has unbounded queues, so deadlock cannot occur; the
// paper's virtual-channel discipline is still tracked per packet (VC =
// hops traversed) and validated against the d+1 / 2d+1 budgets of §V-A.
//
// A Network separates immutable instance state (topology, routing
// table, port maps) from per-run state (ports, event queue, packet
// arena, statistics). Clone produces a cheap second instance sharing the
// immutable half, so a sweep engine can run many configurations of the
// same instance concurrently — runner.Runner.Network hands each sweep
// cell such a clone, and ResetSettings lets a finished clone serve the
// next cell with its run buffers already allocated.
//
// The run loop streams its workload: RunLoad keeps one injection
// cursor per sending endpoint (epGen) that schedules only that
// endpoint's next arrival and draws its destination from a PatternFunc
// that sees the injection cycle (so static and time-varying traffic
// share one path), delivered packets recycle arena slots through a
// freelist, and latency statistics fold into an exact histogram
// (latDigest) — so steady-state memory is O(active packets + endpoints
// + max latency), not O(total offered traffic). Events dispatch
// through a calendar-queue scheduler (sched.go) sized to the model's
// cycle granularity, with a heap fallback for far-future events. Every
// run goes through one run loop (parallel.go) that orders events by
// (time, canonical message id) and gives each packet its own routing
// stream, so results do not depend on the shard count. See DESIGN.md
// §9–§10.
package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Config describes a simulated network instance. Every per-run setting
// has its own setter on the Network (SetPolicy, SetSeed, ...).
type Config struct {
	// Topo is the router-level topology.
	Topo *graph.Graph
	// Concentration is the number of endpoints attached to each router
	// (0 means 1; negative is an error).
	Concentration int
}

// The model's fixed timing, in cycles: a packet serializes through a
// port in PacketFlits cycles (one flit per cycle), each router hop adds
// RouterLatency of pipeline delay, and each wire — router to router and
// NIC to router — adds LinkLatency unless a LinkLatencies table
// overrides it.
const (
	PacketFlits   int64 = 16
	RouterLatency int64 = 5
	LinkLatency   int64 = 10
)

// Network is a simulation instance. It may be reused across runs; each
// run resets all port and statistics state. The topology, routing
// table and port maps are immutable after New and shared by Clone.
type Network struct {
	cfg   Config
	table *routing.Table
	n     int // routers
	nep   int // endpoints

	// run is the per-run configuration the setters write. Clone and
	// the shard views of a run copy it whole.
	run runConfig

	// ---- mutable per-run state (private to each clone) ----

	// Per-router output port state: portFree[r] maps neighbor-slot to
	// the earliest cycle the port is idle. Slot i corresponds to
	// Topo.Neighbors(r)[i]. The shards of a run share these arrays with
	// owner-only writes.
	portFree [][]int64
	// Injection and ejection port state per endpoint.
	injFree []int64
	ejFree  []int64

	sched scheduler
	// route draws the routing randomness (next hops, Valiant
	// intermediates) of the packet whose event is being handled: it
	// wraps pktSrc, which drainUntil loads from the packet around each
	// evArrive, so every packet consumes its own stream.
	route  *rand.Rand
	pktSrc splitmix64

	// tbl is this view's fast-path pointer to the live routing table of
	// the current run: it starts as table and is re-pointed at live.tbl
	// each time the run loop publishes a derived table, so all per-run
	// routing decisions go through tbl while table stays the pristine
	// shared instance. With an empty schedule tbl == table for the whole
	// run.
	tbl *routing.Table
	// live is the run-local live topology of a scheduled run (nil with
	// an empty schedule): the dead/down masks plus the live table,
	// mutated only by applyTopo and publishTable (schedule.go) between
	// drains. Every
	// shard aliases the Network's live. dropRun counts every message
	// lost after being offered — NIC-dead, unreachable, or severed in
	// flight — so the conservation invariant Offered == Delivered +
	// dropRun + in-flight holds at every instant of the run.
	live    *liveTopo
	dropRun int
	// onTopo, when set, is called after each topology event is applied
	// (test hook for boundary invariant checks); onPublish after each
	// derived live table is published to the shards.
	onTopo    func(now int64)
	onPublish func()

	// packets is the arena of in-flight messages: events reference
	// packets by index, so the event queue carries no pointers. free
	// lists the arena slots of delivered/dropped packets for reuse, so
	// the arena high-water mark tracks the in-flight peak rather than
	// the total message count of the run.
	packets []packet
	free    []int32

	// gens holds the per-endpoint streaming injection cursors of
	// RunLoad (allocated once per instance, reseeded per run).
	gens    []epGen
	pattern PatternFunc
	meanGap float64
	// probe is the scratch stream RunLoad asks the pattern with, once
	// per endpoint, whether that endpoint sends at all. It wraps
	// probeSrc, is reseeded per run, and is never an endpoint's own
	// stream, so the question draws nothing a cursor later reads. Each
	// Network allocates its own (Clone does not copy it), so
	// concurrently running clones never share one.
	probe    *rand.Rand
	probeSrc splitmix64

	// lat folds per-message end-to-end latencies of one run (RunBatches
	// pools its rounds here).
	lat latDigest

	// tenStats/tenLat accumulate per-tenant counters and latency
	// digests for the current run (nil unless tenants is set). A
	// message belongs to its source endpoint's tenant.
	tenStats []TenantStats
	tenLat   []latDigest

	stats Stats

	// ---- run layout and shards (parallel.go) ----

	// msgs is the run's messages per endpoint, the stride of the
	// canonical id space; injBase (nep·msgs) starts the injection-event
	// keys past the packet ids.
	msgs, injBase int64
	// shards lists the views of the current (or just-finished) run:
	// the Network itself for a one-shard run, else views. On a view,
	// shardOf maps routers to owning shards (nil on a one-shard run),
	// shardID is the view's own index, and out[s] collects the
	// arrivals it generated for routers of shard s during the current
	// window.
	shards  []*Network
	shardOf []int32
	shardID int32
	out     [][]xmsg
	// views keeps the shard views of multi-shard runs, with their
	// scheduler and arena capacity, for the next run at the same
	// shard count.
	views []*Network

	// kways memoizes KWay shard assignments per worker count (shared
	// across clones of an instance, like the routing table).
	kways *kwayCache
}

// runConfig holds a Network's per-run settings, each written only by
// its setter. What its fields point at is read-only once set, so
// clones and shard views share it. The zero value is a Minimal,
// one-shard, undamaged, static, uniform-wire, single-tenant run.
type runConfig struct {
	policy  routing.Policy
	seed    int64
	workers int
	dead    []bool
	sched   fault.Schedule
	lats    *LinkLatencies
	tenants *TenantConfig
}

// packet is an in-flight message.
type packet struct {
	srcEP, dstEP int32
	dstRouter    int32
	interm       int32 // Valiant intermediate router (-1 = none)
	phase        int8  // 0 = toward intermediate, 1 = toward destination
	hops         int32 // network hops taken so far (= VC index)
	// Upstream position of the pending arrival: the router/slot (or
	// NIC injection port of endpoint fromSlot when fromR = -1) the
	// packet came through, so a scheduled run can sever it when that
	// link goes down while it is in flight.
	fromR, fromSlot int32
	created         int64  // cycle the message entered the injection queue
	uid             int64  // canonical message id: the event key
	rng             uint64 // the packet's routing-stream state
}

// Event kinds.
const (
	evArrive  int8 = iota // packet arrives at a router
	evDeliver             // packet delivered to its endpoint (scheduled runs only)
	evInject              // an endpoint's next streamed injection is due
)

type event struct {
	time int64
	seq  int64 // canonical key: same-time events pop in seq order
	at   int32 // router id (endpoint id for evDeliver/evInject)
	pkt  int32 // index into Network.packets (unused for evInject)
	kind int8
}

// eventQueue is a hand-rolled binary min-heap over (time, seq). It
// avoids the interface{} boxing of container/heap: push/pop move plain
// event values, never allocating per event. (time, seq) is a total
// order — keys are unique among pending events — so the pop order is
// fully deterministic.
// The scheduler uses it as the overflow store for events beyond the
// calendar-queue horizon.
type eventQueue []event

func (q eventQueue) before(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h.before(r, l) {
			c = r
		}
		if !h.before(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// Stats aggregates a run.
type Stats struct {
	// Offered counts the messages the workload generated (excluding
	// self-sends, which no pattern ever transmits); Delivered counts
	// those that reached their destination endpoint. On an undamaged
	// topology the two are equal; on a damaged one the gap is Dropped.
	Offered      int
	Delivered    int
	Dropped      int     // Offered - Delivered: lost to dead routers or partitions
	MaxLatency   int64   // max (delivery - creation) across messages
	MeanLatency  float64 // mean end-to-end latency of delivered messages
	P99Latency   int64
	Makespan     int64 // delivery time of the last message
	TotalHops    int64
	MaxVC        int32 // highest VC index observed (= max hops on a path)
	MeanHops     float64
	ValiantTaken int // packets routed non-minimally by UGAL/Valiant
	// PatternSkips counts workload draws discarded because the pattern
	// returned the source endpoint itself or an id outside the endpoint
	// range. A source that answers -1 ("this source emits no traffic",
	// e.g. an endpoint outside traffic.Mapping's job) when RunLoad
	// probes it draws nothing and counts nothing; a -1 from a source
	// the probe found sending breaks the PatternFunc contract and counts
	// here. There is no redraw, so for patterns with fixed points
	// (e.g. transpose, bit-complement on a palindromic rank) the
	// realized offered load undershoots the nominal load by
	// PatternSkips/(Offered+PatternSkips).
	PatternSkips int
	// SeveredInFlight counts packets dropped mid-flight by a timed
	// topology event: at its arrival instant the link it traversed was
	// down, or the router (or destination endpoint's router) it reached
	// was dead. Always a subset of Dropped; zero — and omitted from JSON,
	// so static-run goldens are untouched — unless the run had a
	// schedule.
	SeveredInFlight int `json:",omitempty"`
	// Tenants is the per-tenant slice of the run's accounting when a
	// TenantConfig was set (SetTenants), indexed by tenant id; nil —
	// and omitted from JSON, so single-tenant goldens are untouched —
	// otherwise.
	Tenants []TenantStats `json:",omitempty"`
	// MemoryBytes is the run loop's steady-state working-set footprint
	// at the end of the run: event scheduler + packet arena/freelist +
	// latency digest + injection generators + port state. Capacities
	// only grow within a run, so this equals the run's peak. A
	// scheduled run adds its live masks and the largest run-local
	// routing table it derived (none when no drain routed on a
	// damaged topology).
	MemoryBytes int64
}

// Equal reports whether two Stats are identical, per-tenant slice
// included. (Stats stopped being ==-comparable when it grew the
// Tenants slice; determinism tests compare through this instead.)
func (s Stats) Equal(o Stats) bool {
	return reflect.DeepEqual(s, o)
}

// DeliveredFraction returns Delivered/Offered (1 for an idle run).
func (s Stats) DeliveredFraction() float64 {
	if s.Offered == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Offered)
}

// New builds a simulation instance over the given routing table.
func New(cfg Config, table *routing.Table) (*Network, error) {
	if cfg.Concentration == 0 {
		cfg.Concentration = 1
	}
	if cfg.Topo == nil || table == nil {
		return nil, fmt.Errorf("simnet: nil topology or table")
	}
	if cfg.Concentration < 0 {
		return nil, fmt.Errorf("simnet: Concentration %d, want >= 1 (0 means 1)", cfg.Concentration)
	}
	if table.G != cfg.Topo {
		return nil, fmt.Errorf("simnet: routing table built for a different graph")
	}
	n := cfg.Topo.N()
	nw := &Network{
		cfg:   cfg,
		table: table,
		n:     n,
		nep:   n * cfg.Concentration,
		kways: &kwayCache{},
	}
	return nw, nil
}

// Clone returns an independent simulation instance over the same
// topology and per-run settings. The immutable half (topology, routing
// table, port maps) is shared read-only; all run state is private, so
// clones may run concurrently with each other and with the receiver.
// The setters vary the per-run settings of a clone.
func (nw *Network) Clone() *Network {
	return &Network{
		cfg:   nw.cfg,
		table: nw.table,
		n:     nw.n,
		nep:   nw.nep,
		run:   nw.run,
		kways: nw.kways,
	}
}

// ResetSettings returns every per-run setting to its default — a
// Minimal, one-shard, undamaged, static, uniform-wire, single-tenant
// run at seed 0, as on a fresh Clone of a prototype — and drops what
// the finished run pointed at (its workload and live topology). The
// run buffers stay: the event wheel, port and NIC state, injection
// cursors, packet arena and shard views serve the next run, which
// resets their contents. runner.Runner recycles sweep clones this way.
func (nw *Network) ResetSettings() {
	for _, v := range append([]*Network{nw}, nw.views...) {
		v.run, v.pattern, v.live, v.tbl = runConfig{}, nil, nil, nil
	}
}

// SetPolicy sets the routing algorithm for subsequent runs (default
// Minimal). It panics on a policy that is not Valid: every façade and
// sweep entry checks the policy first.
func (nw *Network) SetPolicy(p routing.Policy) {
	if !p.Valid() {
		panic(fmt.Sprintf("simnet: unknown routing policy %d", int(p)))
	}
	nw.run.policy = p
}

// SetSeed sets the seed that drives every randomized choice of
// subsequent runs (default 0).
func (nw *Network) SetSeed(s int64) { nw.run.seed = s }

// SetWorkers sets the number of shards subsequent runs are split into
// (0 and 1 mean one). It is a speed knob only: every run's statistics
// are identical for every value (MemoryBytes aside, which counts the
// shards' real memory). Runs the shards cannot express — UGAL-G and
// topologies under 4 routers per shard — use fewer shards, down to one
// (see parWorkers).
func (nw *Network) SetWorkers(w int) { nw.run.workers = w }

// SetDeadRouters sets the failed-router mask for subsequent runs (nil
// = none). A dead router cannot source, sink or switch traffic:
// messages to or from its endpoints are dropped at the NIC and counted
// in Stats.Dropped. The mask is read-only and must have length
// Topo.N(); the sweep engine applies one plan's mask to each clone of
// a damaged prototype. Like SetSchedule it returns an error — leaving
// the previous mask in place — rather than panicking.
func (nw *Network) SetDeadRouters(mask []bool) error {
	if mask != nil && len(mask) != nw.n {
		return fmt.Errorf("simnet: DeadRouters length %d, want %d", len(mask), nw.n)
	}
	nw.run.dead = mask
	return nil
}

// LinkLatencies is an optional per-link wire-latency model replacing
// the uniform LinkLatency constant (layout.LinkLatencies derives one
// from a physical machine-room placement). Port[r][slot] is the
// latency in cycles of the link leaving router r through port slot
// (slot i feeds Topo.Neighbors(r)[i], the same indexing as the port
// state); NIC is the endpoint↔router wire latency (0 keeps LinkLatency
// for NIC hops). A physical cable has one length, so callers normally
// build symmetric tables, but symmetry is not required by the model.
type LinkLatencies struct {
	Port [][]int64
	NIC  int64
}

// SetLinkLatencies overrides the wire-latency model for subsequent
// runs (nil = the uniform LinkLatency constant; see LinkLatencies).
// The table is read-only and must cover every port of every router
// with a non-negative latency. Like SetSchedule it returns an error —
// leaving the previous table in place — rather than panicking, so a
// sweep can fail one cell instead of the process.
func (nw *Network) SetLinkLatencies(lat *LinkLatencies) error {
	if lat != nil {
		if len(lat.Port) != nw.n {
			return fmt.Errorf("simnet: LinkLatencies.Port length %d, want %d", len(lat.Port), nw.n)
		}
		for r := 0; r < nw.n; r++ {
			if len(lat.Port[r]) != nw.cfg.Topo.Degree(r) {
				return fmt.Errorf("simnet: LinkLatencies.Port[%d] length %d, want degree %d", r, len(lat.Port[r]), nw.cfg.Topo.Degree(r))
			}
			for s, l := range lat.Port[r] {
				if l < 0 {
					return fmt.Errorf("simnet: LinkLatencies.Port[%d][%d] = %d, want >= 0", r, s, l)
				}
			}
		}
		if lat.NIC < 0 {
			return fmt.Errorf("simnet: LinkLatencies.NIC = %d, want >= 0", lat.NIC)
		}
	}
	nw.run.lats = lat
	return nil
}

// linkLat returns the wire latency of the link leaving router r
// through port slot: the per-port table when one is set, the uniform
// constant otherwise. This is the hot-path lookup behind every
// router-to-router hop.
func (nw *Network) linkLat(r int32, slot int) int64 {
	if nw.run.lats != nil {
		return nw.run.lats.Port[r][slot]
	}
	return LinkLatency
}

// nicLat returns the NIC↔router wire latency (injection and ejection
// hops).
func (nw *Network) nicLat() int64 {
	if nw.run.lats != nil && nw.run.lats.NIC > 0 {
		return nw.run.lats.NIC
	}
	return LinkLatency
}

// SetSchedule sets the timed topology events — link cuts/restores,
// router kills/revivals, planned rewiring steps — that subsequent runs
// apply mid-run at their cycles (fault.Schedule; see DESIGN.md §10).
// The run's routing table is a function of the links that are down:
// the pristine table while none is, otherwise one Table.Repair of the
// pristine table over the down links (sharing every unchanged row). It
// is derived lazily, once before the first drain after a change that
// flipped a link, so changes after the last event build nothing.
// Subsequent hops route on the derived table; a packet whose
// traversed link is down at its arrival instant, or that arrives at a
// dead router, is dropped and counted in Stats.SeveredInFlight. Every
// pair must be an edge of Topo (restores bring base-topology links
// back — the schedule can never grow the topology past Topo).
// Nil/empty means a static topology and changes nothing. The run loop
// ends its drain windows at change cycles and applies each change
// between drains, after every event before the change cycle and before
// any event at or after it. RunBatches returns an error while a
// schedule is set: motif rounds have no global clock a schedule could
// be pinned to.
//
// SetSchedule returns an error — and leaves the previous schedule in
// place — on a schedule that is invalid for the instance's topology,
// so a sweep can fail one cell instead of crashing the process.
func (nw *Network) SetSchedule(s fault.Schedule) error {
	if err := s.Validate(nw.cfg.Topo); err != nil {
		return fmt.Errorf("simnet: %w", err)
	}
	nw.run.sched = s
	return nil
}

// Endpoints returns the number of attached endpoints.
func (nw *Network) Endpoints() int { return nw.nep }

// routerOf returns the router an endpoint attaches to.
func (nw *Network) routerOf(ep int32) int32 {
	return ep / int32(nw.cfg.Concentration)
}

// reset clears the shared run state — port and NIC state (keeping the
// arrays of earlier runs), the live topology — and the Network's own
// shard state.
func (nw *Network) reset() {
	if nw.portFree == nil {
		nw.portFree = make([][]int64, nw.n)
		for r := range nw.portFree {
			nw.portFree[r] = make([]int64, nw.cfg.Topo.Degree(r))
		}
		nw.injFree = make([]int64, nw.nep)
		nw.ejFree = make([]int64, nw.nep)
	} else {
		for _, pf := range nw.portFree {
			clear(pf)
		}
		clear(nw.injFree)
		clear(nw.ejFree)
	}
	nw.tbl = nw.table
	if len(nw.run.sched) > 0 {
		nw.live = newLiveTopo(nw)
	} else {
		nw.live = nil
	}
	nw.shardOf = nil
	nw.shardID = 0
	nw.resetShard()
}

// resetShard clears one shard's private run state: scheduler, arena,
// counters and digests. Capacity is kept for the next run.
func (nw *Network) resetShard() {
	nw.sched.reset()
	nw.packets = nw.packets[:0]
	nw.free = nw.free[:0]
	nw.dropRun = 0
	nw.stats = Stats{}
	nw.lat.reset()
	nw.resetTenants()
	if nw.route == nil {
		nw.route = rand.New(&nw.pktSrc)
	}
}

// push queues an event under its canonical key: the message id for
// packet events, and for an endpoint's injection cursor the same form
// offset past the packet ids. Keys are a pure function of the
// workload, so same-time events pop in one order whatever the shard
// layout. An arrival at a router another shard owns goes to that
// shard's outbox instead, with the packet (and its routing stream,
// live in pktSrc while the arrival that pushed it is handled) by
// value.
func (nw *Network) push(e event) {
	if e.kind == evInject {
		// Draw number msgs-left of endpoint e.at: fireInjection pushes
		// after decrementing left, the initial seeding with left = msgs.
		e.seq = nw.injBase + int64(e.at)*nw.msgs + (nw.msgs - int64(nw.gens[e.at].left))
	} else {
		p := &nw.packets[e.pkt]
		e.seq = p.uid
		if nw.shardOf != nil && e.kind == evArrive {
			if s := nw.shardOf[e.at]; s != nw.shardID {
				x := xmsg{e: e, p: *p}
				x.p.rng = nw.pktSrc.state
				nw.out[s] = append(nw.out[s], x)
				nw.freePacket(e.pkt)
				return
			}
		}
	}
	nw.sched.push(e)
}

// newPacket places a packet in the arena — reusing a freed slot when
// one exists — and returns its index. A packet has exactly one pending
// event at any moment, so a slot freed at delivery or drop is never
// referenced again and can be recycled immediately: the arena's
// high-water mark is the in-flight peak, not the run's message count.
func (nw *Network) newPacket(p packet) int32 {
	if n := len(nw.free); n > 0 {
		pi := nw.free[n-1]
		nw.free = nw.free[:n-1]
		nw.packets[pi] = p
		return pi
	}
	nw.packets = append(nw.packets, p)
	return int32(len(nw.packets) - 1)
}

// freePacket returns an arena slot to the freelist.
func (nw *Network) freePacket(pi int32) { nw.free = append(nw.free, pi) }

// inject serializes a packet through its endpoint's injection port and
// schedules its arrival at the source router.
func (nw *Network) inject(pi int32, now int64) {
	p := &nw.packets[pi]
	ep := p.srcEP
	p.fromR, p.fromSlot = -1, ep
	start := now
	if nw.injFree[ep] > start {
		start = nw.injFree[ep]
	}
	nw.injFree[ep] = start + PacketFlits
	arrive := start + PacketFlits + nw.nicLat()
	nw.push(event{time: arrive, at: nw.routerOf(ep), kind: evArrive, pkt: pi})
}

// newMessage places a new message in the arena under canonical id uid,
// seeding its private routing stream from the run seed.
func (nw *Network) newMessage(src, dst int32, created, uid int64) int32 {
	return nw.newPacket(packet{
		srcEP:     src,
		dstEP:     dst,
		dstRouter: nw.routerOf(dst),
		interm:    -2, // routing decision pending
		created:   created,
		uid:       uid,
		rng:       mixSeed(nw.run.seed, int64(nw.nep)+uid),
	})
}

// fireInjection services one sending endpoint's streaming injection
// cursor: draw this message's destination, schedule the endpoint's
// next arrival (keeping exactly one pending injection event per
// sending endpoint), and inject the packet. All draws come from the
// endpoint's private RNG, so the global event interleaving cannot
// perturb any endpoint's workload stream. Silent endpoints never get
// here (RunLoad queues no cursor for them), so a -1 from a probed
// sender breaks the PatternFunc contract and is counted as a skip
// like any other out-of-range draw.
func (nw *Network) fireInjection(ep int32, now int64) {
	g := &nw.gens[ep]
	g.left--
	dst := nw.pattern(int(ep), now, g.rng)
	if g.left > 0 {
		nw.push(event{time: g.next(nw.gapOf(ep)), at: ep, kind: evInject})
	}
	switch {
	case dst == int(ep) || dst < 0 || dst >= nw.nep:
		nw.stats.PatternSkips++
	default:
		nw.stats.Offered++
		nw.tenOffered(ep)
		if nw.deadNow(nw.routerOf(ep)) || nw.deadNow(nw.routerOf(int32(dst))) {
			nw.dropRun++
			return // orphaned endpoint: the message is lost at the NIC
		}
		// g.left was already decremented: this is draw msgs-left-1.
		uid := int64(ep)*nw.msgs + (nw.msgs - int64(g.left) - 1)
		nw.inject(nw.newMessage(ep, int32(dst), now, uid), now)
	}
}

// chooseValiantIntermediate picks a random router distinct from both
// endpoints' routers that can actually relay the packet: on a damaged
// topology an intermediate must be reachable from the source and reach
// the destination, or the detour would strand the packet. Returns -1
// when no usable intermediate is found (callers fall back to minimal
// routing, which drops only if the pair is truly partitioned). On an
// undamaged topology every candidate passes, so the rejection sampling
// consumes exactly the same random draws as before.
func (nw *Network) chooseValiantIntermediate(srcR, dstR int32) int32 {
	for attempts := 0; attempts < 8*nw.n+16; attempts++ {
		i := int32(nw.route.Intn(nw.n))
		if i == srcR || i == dstR {
			continue
		}
		if nw.tbl.HopDist(int(srcR), int(i)) < 0 || nw.tbl.HopDist(int(i), int(dstR)) < 0 {
			continue // cannot relay on the damaged topology
		}
		return i
	}
	return -1
}

// routeTarget returns the router the packet is currently heading for.
func (p *packet) routeTarget() int32 {
	if p.phase == 0 && p.interm >= 0 {
		return p.interm
	}
	return p.dstRouter
}

// decidePolicy fixes the packet's path shape at the source router:
// minimal unless the policy takes a Valiant detour. Minimal packets
// and packets already at their destination router draw nothing;
// the others draw one intermediate, then whatever detour needs.
func (nw *Network) decidePolicy(p *packet, r int32, now int64) {
	p.interm, p.phase = -1, 1
	if nw.run.policy == routing.Minimal || p.dstRouter == r {
		return
	}
	interm := nw.chooseValiantIntermediate(r, p.dstRouter)
	if interm < 0 {
		return // no viable detour (damaged topology): minimal or bust
	}
	if nw.detour(r, interm, p.dstRouter, now) {
		p.interm, p.phase = interm, 0
		nw.stats.ValiantTaken++
	}
}

// detour reports whether a packet at router r bound for dst goes via
// interm. Valiant always does; UGAL-L compares local output-queue
// backlog weighted by hop count, UGAL-G the backlog along sampled
// paths. A missing hop or path keeps the packet minimal.
func (nw *Network) detour(r, interm, dst int32, now int64) bool {
	switch nw.run.policy {
	case routing.UGALL:
		_, minHop := nw.nextHop(r, dst)
		_, valHop := nw.nextHop(r, interm)
		if minHop < 0 || valHop < 0 {
			return false
		}
		qMin := nw.portBacklog(r, minHop, now)
		qVal := nw.portBacklog(r, valHop, now)
		hMin := int64(nw.tbl.HopDist(int(r), int(dst)))
		hVal := int64(nw.tbl.HopDist(int(r), int(interm))) +
			int64(nw.tbl.HopDist(int(interm), int(dst)))
		return qVal*hVal < qMin*hMin
	case routing.UGALG:
		cMin, okMin := nw.pathCost(int(r), int(dst), now)
		cVia, okVia := nw.pathCost(int(r), int(interm), now)
		cRest, okRest := nw.pathCost(int(interm), int(dst), now)
		return okMin && okVia && okRest && cVia+cRest < cMin
	}
	return true // Valiant (SetPolicy admits nothing else here)
}

// pathCost samples one shortest path and sums queueing backlog plus
// serialization along it — the global channel-state estimate UGAL-G is
// allowed to use.
func (nw *Network) pathCost(src, dst int, now int64) (int64, bool) {
	if src == dst {
		return 0, true
	}
	var cost int64
	v := src
	for v != dst {
		next, slot := nw.nextHop(int32(v), int32(dst))
		if slot < 0 {
			return 0, false
		}
		cost += nw.portBacklog(int32(v), slot, now) + PacketFlits
		v = int(next)
	}
	return cost, true
}

// nextHop draws a random shortest-path hop from router r toward target
// on the live table, returning the neighbor and its port slot, or
// (-1, -1) when none exists. A repaired live table routes a graph with
// links removed, so its neighbor indices are mapped back to the
// topology's port slots.
func (nw *Network) nextHop(r, target int32) (next int32, slot int) {
	s := nw.tbl.NextHopSlot(int(r), int(target), nw.route)
	if s < 0 {
		return -1, -1
	}
	if nw.tbl.G == nw.cfg.Topo {
		return nw.cfg.Topo.Neighbors(int(r))[s], s
	}
	next = nw.tbl.G.Neighbors(int(r))[s]
	slot, _ = slices.BinarySearch(nw.cfg.Topo.Neighbors(int(r)), next)
	return next, slot
}

// portBacklog returns the queueing delay (cycles) a packet would face
// on output port slot of router r — the "local queue length"
// information UGAL-L is allowed to use.
func (nw *Network) portBacklog(r int32, slot int, now int64) int64 {
	b := nw.portFree[r][slot] - now
	if b < 0 {
		return 0
	}
	return b
}

// arriveAtRouter routes a packet one hop further: it ejects at its
// destination router, else queues on the output port of its next hop.
func (nw *Network) arriveAtRouter(r int32, pi int32, now int64) {
	p := &nw.packets[pi]
	// Phase handoff at the Valiant intermediate.
	if p.phase == 0 && r == p.interm {
		p.phase = 1
	}
	if r == p.dstRouter {
		// Eject to the endpoint (consumption is never blocked).
		start := now + RouterLatency
		if nw.ejFree[p.dstEP] > start {
			start = nw.ejFree[p.dstEP]
		}
		nw.ejFree[p.dstEP] = start + PacketFlits
		deliver := start + PacketFlits + nw.nicLat()
		if nw.live == nil {
			// Nothing can sever a packet in a static run's ejection
			// pipeline: account the delivery now instead of queueing it.
			nw.deliver(pi, deliver)
			return
		}
		nw.push(event{time: deliver, at: p.dstEP, kind: evDeliver, pkt: pi})
		return
	}
	target := p.routeTarget()
	next, slot := nw.nextHop(r, target)
	if slot < 0 {
		// Unreachable (only possible on damaged topologies): drop.
		nw.freePacket(pi)
		nw.dropRun++
		return
	}
	start := now + RouterLatency
	if nw.portFree[r][slot] > start {
		start = nw.portFree[r][slot]
	}
	nw.portFree[r][slot] = start + PacketFlits
	p.hops++
	p.fromR, p.fromSlot = r, int32(slot)
	arrive := start + PacketFlits + nw.linkLat(r, slot)
	nw.push(event{time: arrive, at: next, kind: evArrive, pkt: pi})
}

// handle dispatches one event — the body of the event loop.
func (nw *Network) handle(e event) {
	switch e.kind {
	case evInject:
		nw.fireInjection(e.at, e.time)
	case evArrive:
		// Severed at the arrival instant: the link the packet traversed
		// was cut, or the router it reached died, while it was in flight
		// (fromR < 0 means the hop came from the NIC, which has no
		// cuttable link). Surviving packets re-route naturally: the next
		// hop is chosen on the repaired live table.
		p := &nw.packets[e.pkt]
		if nw.live != nil &&
			((p.fromR >= 0 && nw.live.downPort[p.fromR][p.fromSlot]) || nw.live.deadRun[e.at]) {
			nw.freePacket(e.pkt)
			nw.dropRun++
			nw.stats.SeveredInFlight++
			return
		}
		if p.hops == 0 && p.interm == -2 {
			// First router touch: fix the path shape.
			nw.decidePolicy(p, e.at, e.time)
		}
		nw.arriveAtRouter(e.at, e.pkt, e.time)
	case evDeliver:
		p := &nw.packets[e.pkt]
		if nw.live != nil && nw.live.deadRun[p.dstRouter] {
			// The destination's router died while the packet sat in the
			// ejection pipeline.
			nw.freePacket(e.pkt)
			nw.dropRun++
			nw.stats.SeveredInFlight++
			return
		}
		nw.deliver(e.pkt, e.time)
	}
}

// deliver accounts packet pi's delivery to its endpoint at cycle now
// and frees its arena slot.
func (nw *Network) deliver(pi int32, now int64) {
	p := &nw.packets[pi]
	lat := now - p.created
	nw.lat.add(lat)
	nw.stats.Delivered++
	nw.tenDelivered(p.srcEP, lat)
	nw.stats.MaxLatency = max(nw.stats.MaxLatency, lat)
	nw.stats.Makespan = max(nw.stats.Makespan, now)
	nw.stats.TotalHops += int64(p.hops)
	nw.stats.MaxVC = max(nw.stats.MaxVC, p.hops)
	nw.freePacket(pi)
}

// MemoryBytes reports the run loop's working-set footprint for the
// current (or just-finished) run: each shard's event scheduler
// high-water mark, packet arena and freelist, latency digests, plus
// the shared injection generators, per-port state and live topology.
// The accounting is length-based — lengths are a pure function of the
// run and its shard count, so the value is identical whether the
// Network is fresh, cloned, or reused — and every component's length
// is at its run peak when the drain completes, so Stats.MemoryBytes
// records the run's peak working set.
func (nw *Network) MemoryBytes() int64 {
	shards := nw.shards
	if shards == nil {
		shards = []*Network{nw}
	}
	var b int64
	for _, sh := range shards {
		b += sh.sched.memoryBytes()
		b += int64(len(sh.packets))*int64(unsafe.Sizeof(packet{})) + int64(len(sh.free))*4
		b += sh.lat.memoryBytes()
		b += sh.memoryBytesTenants()
	}
	if nw.pattern != nil {
		// Streaming (RunLoad) runs use the injection generators: each
		// carries a two-word source plus one heap-allocated rand.Rand
		// wrapper (~48 B). Batch runs don't, so generators retained from
		// an earlier RunLoad on a reused instance are not charged to
		// them — the value stays a pure function of the run.
		b += int64(len(nw.gens)) * (int64(unsafe.Sizeof(epGen{})) + 48)
	}
	for _, pf := range nw.portFree {
		b += int64(len(pf)) * 8
	}
	b += int64(len(nw.injFree)+len(nw.ejFree)) * 8
	// Live-topology state of a scheduled run (nil otherwise, so static
	// runs' accounting is untouched): the masks plus the largest
	// run-local table Repair derived. The lazy table backend's footprint
	// depends on access order, so with it a scheduled run's
	// MemoryBytes depends on the shard count; dense and packed stay
	// run-deterministic.
	if nw.live != nil {
		b += nw.live.memoryBytes()
	}
	return b
}

// PatternFunc maps a source endpoint to a destination endpoint for one
// message. It is called once per generated message, at the cycle now
// the message is injected: a static pattern ignores now, a
// time-varying one (traffic that shifts phase every P cycles while the
// fabric rewires underneath it) reads it.
//
// The answer -1 means "this source emits no traffic" and is a property
// of the source endpoint alone: a pattern returns it on every call for
// that endpoint, whatever now and the draws, or on none. RunLoad relies
// on this to ask each endpoint once, at cycle 0 on a scratch stream,
// and to queue nothing for a silent one (traffic.Mapping's endpoints
// outside the job, traffic.Assignment's unowned endpoints).
type PatternFunc func(srcEP int, now int64, rng *rand.Rand) int

// RunLoad drives the open-loop experiment of §VI-C: every endpoint the
// pattern does not silence (-1, see PatternFunc) generates msgsPerEP
// messages with exponential inter-arrival times realizing the given
// offered load (fraction of endpoint injection bandwidth), destinations
// drawn from pattern. It returns the run statistics; the paper's
// headline metric is Stats.MaxLatency. It panics on a load outside
// (0, 1]: every façade and sweep entry checks the load first.
//
// Injection streams: each sending endpoint's cursor schedules only its
// next arrival, so the event queue holds one pending injection per
// sending endpoint instead of the whole run's message list, and memory
// scales with the in-flight packet population rather than total
// offered traffic. Every endpoint draws gaps and destinations from its
// own seeded RNG, so results are deterministic per seed. Each cursor is
// seeded and queued on the shard owning its router, then the run loop
// drains the shards.
//
// Silent endpoints: before queueing a cursor, RunLoad asks the pattern
// once for that endpoint, at cycle 0 with a scratch RNG. An endpoint
// that answers -1 is silent for the whole run (see PatternFunc), so no
// cursor is queued and its private stream is never drawn: a job mapped
// onto part of the machine costs events only for its own ranks. Every
// other endpoint's draws and event keys are unchanged by the question.
func (nw *Network) RunLoad(pattern PatternFunc, load float64, msgsPerEP int) Stats {
	if !(load > 0 && load <= 1) { // NaN fails too
		panic(fmt.Sprintf("simnet: offered load %v out of (0,1]", load))
	}
	if nw.gens == nil {
		nw.gens = make([]epGen, nw.nep)
	}
	if nw.probe == nil {
		nw.probe = rand.New(&nw.probeSrc)
	}
	nw.probeSrc.state = mixSeed(nw.run.seed, -1) // lane -1: no endpoint or packet stream
	nw.begin(pattern, float64(PacketFlits)/load, msgsPerEP)
	for ep := range nw.gens {
		g := &nw.gens[ep]
		g.src.state = mixSeed(nw.run.seed, int64(ep))
		if g.rng == nil {
			g.rng = rand.New(&g.src)
		}
		g.t = 0
		g.left = msgsPerEP
		if msgsPerEP > 0 && pattern(ep, 0, nw.probe) != -1 {
			sh := nw.ownerOf(nw.routerOf(int32(ep)))
			sh.push(event{time: g.next(nw.gapOf(int32(ep))), at: int32(ep), kind: evInject})
		}
	}
	nw.drive()
	return nw.fold()
}

// The saturation search's knee criterion and bisection resolution: a
// load saturates once its tail latency exceeds SaturationLatencyFactor
// × the light-load tail, located to within SaturationTol.
const (
	SaturationLatencyFactor float64 = 3
	SaturationTol           float64 = 0.02
)

// SaturationLoad estimates the saturation point of the network under a
// traffic pattern: the largest offered load whose tail (P99) latency
// stays below SaturationLatencyFactor × the light-load (5%) tail
// latency, found by bisection to within SaturationTol. §VI-C observes
// saturation "at or beyond 70% of network capacity" for the studied
// topologies; this utility lets callers measure that knee directly.
// The tail statistic is used because over a finite horizon the mean
// lags the congestion collapse that the paper's max-time metric
// reflects.
func (nw *Network) SaturationLoad(pattern PatternFunc, msgsPerEP int) float64 {
	base := nw.RunLoad(pattern, 0.05, msgsPerEP).P99Latency
	if base <= 0 {
		return 0
	}
	limit := float64(base) * SaturationLatencyFactor
	lo, hi := 0.05, 1.0
	probe := nw.RunLoad(pattern, hi, msgsPerEP)
	if probe.Delivered == 0 {
		// Nothing arrives at full load (dead or partitioned network):
		// the zero tail latency is meaningless, so don't compare it
		// against the limit — there is no knee to bisect for.
		return 0
	}
	if float64(probe.P99Latency) <= limit {
		return hi // never saturates in the modeled range
	}
	for hi-lo > SaturationTol {
		mid := (lo + hi) / 2
		if float64(nw.RunLoad(pattern, mid, msgsPerEP).P99Latency) <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Message is one rank-level transfer for batch (motif) runs, already
// mapped to endpoint ids.
type Message struct {
	SrcEP, DstEP int
}

// RunBatches drives the Ember-motif experiments of §VI-D: each round's
// messages are injected together at the round start, and the next round
// begins only when the previous one has fully drained (the global
// synchronization of the motif's communication phases). Returned
// Makespan spans all rounds; MeanLatency is the delivered-weighted mean
// over every round and P99Latency is the percentile of the pooled
// per-message latencies. It returns an error while a topology-event
// schedule is set (SetSchedule): a motif round has no global clock the
// schedule could be pinned to (each round restarts at the previous
// drain point), so timed topology events are meaningless here.
func (nw *Network) RunBatches(rounds [][]Message) (Stats, error) {
	if len(nw.run.sched) > 0 {
		return Stats{}, fmt.Errorf("simnet: RunBatches does not support a topology-event schedule")
	}
	shards := nw.begin(nil, 0, 0)
	var clock, uid int64
	for _, round := range rounds {
		for _, m := range round {
			if m.SrcEP == m.DstEP || m.DstEP < 0 || m.DstEP >= nw.nep {
				shards[0].stats.PatternSkips++
				continue
			}
			src, dst := int32(m.SrcEP), int32(m.DstEP)
			sh := nw.ownerOf(nw.routerOf(src))
			sh.stats.Offered++
			sh.tenOffered(src)
			if nw.deadNow(nw.routerOf(src)) || nw.deadNow(nw.routerOf(dst)) {
				sh.dropRun++
				continue
			}
			sh.inject(sh.newMessage(src, dst, clock, uid), clock)
			uid++
		}
		nw.drive()
		for _, sh := range shards {
			clock = max(clock, sh.stats.Makespan)
		}
		for _, sh := range shards {
			// The drained scheduler may have popped a drop past the
			// round's last delivery; rewinding its cursor to the round
			// start keeps the next round's events from being clamped.
			sh.sched.cur = clock
		}
		// Port/NIC state carries over naturally; subsequent rounds start
		// after the drain point.
		for r := range nw.portFree {
			for i := range nw.portFree[r] {
				if nw.portFree[r][i] < clock {
					nw.portFree[r][i] = clock
				}
			}
		}
		for i := range nw.injFree {
			if nw.injFree[i] < clock {
				nw.injFree[i] = clock
			}
			if nw.ejFree[i] < clock {
				nw.ejFree[i] = clock
			}
		}
	}
	return nw.fold(), nil
}
