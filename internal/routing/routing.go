// Package routing implements the routing machinery of §V: all-pairs
// shortest-path tables with full equal-cost path diversity, and the
// three routing policies evaluated in the paper — minimal, Valiant, and
// UGAL-L — together with the hop-incrementing virtual-channel
// discipline used for deadlock avoidance (d+1 VCs for minimal routing,
// 2d+1 for Valiant/UGAL paths).
//
// The table stores one BFS distance row per destination, computed by
// graph.EachBFS, which sweeps 64 destinations at a time in the bits of
// one word per vertex. Next-hop sets are derived on demand as the
// neighbors one hop closer to the destination, so the storage cost is
// one distance cell per (vertex, destination) pair rather than n²·k. Every row has
// one format: cells of 4, 8 or 32 bits, the narrowest that fits the
// row's largest distance at or above a per-store width floor. The
// three storage backends (Store) trade memory for lookup cost: dense
// rows pinned at the 32-bit width, packed rows from 4 bits up (8×
// smaller — low-diameter Ramanujan instances fit hop counts in a
// nibble), and lazily materialized packed rows under a bounded LRU
// working set. Unless told otherwise a table picks its store from the
// graph's size: dense up to 4,096 routers, packed above. A 32-bit row
// also carries its distances mod 3 at 2 bits per vertex: a neighbour
// of v is one hop closer to the destination exactly when its code is
// (code(v)+2) mod 3, so the per-hop neighbour scan of a dense row reads
// n/4 bytes instead of 4n.
//
// On an intact Cayley graph (a graph carrying a graph.Cayley view, as
// every topo.LPS graph does) the packed store keeps no rows at all: it
// is the group view plus one BFS from the identity, O(n·k) state.
// Left multiplication is an automorphism, so d(v, dest) = D[v⁻¹·dest],
// and the neighbour v·s is a next hop exactly when D[s⁻¹·v⁻¹·dest] =
// D[v⁻¹·dest] − 1; the scan walks v's slots in the same order as a
// row scan. All the stores are bit-identical in every distance,
// next-hop set and RNG draw they report. Repair and Restore derive the
// table of a damaged or augmented topology by the same build, sharing
// with the old table every row whose distances did not change; from a
// Cayley table, which has no rows, Repair builds packed rows of the
// damaged graph.
package routing

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Policy selects a routing algorithm (§V).
type Policy int

const (
	// Minimal forwards along a uniformly random shortest path.
	Minimal Policy = iota
	// Valiant routes via a uniformly random intermediate router:
	// shortest path to the intermediate, then to the destination.
	Valiant
	// UGALL (UGAL-L) chooses per packet between the minimal and a
	// random Valiant path using only local output-queue lengths at the
	// source router, weighted by total hop count.
	UGALL
	// UGALG (UGAL-G) is the global-information variant of the UGAL
	// family (§V): the source compares the total queueing backlog along
	// a sampled minimal path and a sampled Valiant path.
	UGALG
)

func (p Policy) String() string {
	switch p {
	case Minimal:
		return "minimal"
	case Valiant:
		return "valiant"
	case UGALL:
		return "ugal-l"
	case UGALG:
		return "ugal-g"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Valid reports whether p is one of the named policies (Minimal
// through UGALG). simnet's SetPolicy panics on any other value, so
// every entry that accepts a Policy from a caller checks it first.
func (p Policy) Valid() bool { return p >= Minimal && p <= UGALG }

// MarshalText renders the policy name, so JSON experiment output
// carries "ugal-l" rather than an enum value.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name, accepting exactly the forms
// MarshalText emits, so -json experiment output and saved sweep
// configurations round-trip.
func (p *Policy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "minimal":
		*p = Minimal
	case "valiant":
		*p = Valiant
	case "ugal-l":
		*p = UGALL
	case "ugal-g":
		*p = UGALG
	default:
		return fmt.Errorf("routing: unknown policy %q (want minimal, valiant, ugal-l or ugal-g)", text)
	}
	return nil
}

// Table is an all-pairs shortest-path oracle over a fixed topology.
//
// A Table is immutable after NewTable returns: every method only reads
// the distance rows, so a single Table is safe for any number of
// concurrent readers (the parallel sweep engine in internal/runner
// builds one Table per topology instance and shares it across all
// workers). Methods that make randomized choices (NextHopRandom,
// NextHopSlot) take the caller's *rand.Rand, which is NOT safe for
// concurrent use — each goroutine must supply its own. (The lazy
// backend mutates internal caches behind atomics and a mutex, so the
// concurrent-reader contract holds for every Store.)
//
// Immutability is also what makes live-table swapping safe: Repair and
// Restore never touch the receiver — they return a NEW table (sharing
// unchanged per-destination rows with the old one), so an engine
// may publish the new pointer at a synchronization point while other
// goroutines still read the old table. Readers that raced past the
// swap keep a consistent pre-change snapshot; there is no state in
// which either table is partially updated. The unified simulator
// engine relies on this at its schedule barriers (DESIGN.md §10), and
// TestTableSwapUnderConcurrentReaders pins it under -race.
//
// Dense and packed tables hold one row per destination, except that a
// packed table of an intact Cayley graph holds the group view instead;
// a lazy table holds rows on demand. Every distance they report is
// bit-identical across backends.
type Table struct {
	G     *graph.Graph
	store Store
	rows  []packedRow  // StoreDense, StorePacked: rows[dest].at(v) = hop distance v→dest (-1 unreachable)
	lazy  *lazyTable   // StoreLazy: on-demand rows under a bounded LRU
	cay   *cayleyTable // StorePacked on an intact Cayley graph: no rows
	diam  int32        // largest finite distance (StoreLazy computes it on demand)
}

// NewTable builds the table of g in the store its size selects (dense
// up to 4,096 routers, packed above), computing distance rows toward
// every destination with the all-pairs kernel graph.EachBFS, fanned
// out across GOMAXPROCS workers. The topology must be connected for
// meaningful routing; disconnected pairs keep distance -1 and have no
// next hops.
func NewTable(g *graph.Graph) *Table {
	return NewTableOpts(g, TableOptions{})
}

// NewTableOpts builds a table with the chosen storage backend. Dense
// and packed tables pay the full all-pairs BFS (graph.EachBFS) up
// front, encoding each row from the kernel's scratch vector: narrow
// rows pack it, 32-bit rows copy it and pack its mod-3 next-hop view.
// A packed table of a graph with a Cayley view runs one BFS from the
// identity instead and routes through the view. Lazy tables return
// immediately and compute rows on first touch.
func NewTableOpts(g *graph.Graph, opts TableOptions) *Table {
	return newTable(g, opts.Store, nil)
}

// Repair returns the routing table for t's topology with the given
// links removed: a rebuild over t.G.RemoveEdges(removed) in t's store
// that shares every row the damage leaves unchanged (see newTable).
// Pairs that are not edges of t.G are ignored. Static fault plans
// repair the intact table once; a scheduled simulation derives its
// live table as one Repair of the pristine table over the links down
// at that moment.
func (t *Table) Repair(removed [][2]int32) *Table {
	return newTable(t.G.RemoveEdges(removed), t.store, t)
}

// Restore returns the routing table for t's topology with the given
// links inserted — links coming back up, or a planned rewiring step
// activating edges: a rebuild over t.G.AddEdges(added) in t's store
// that shares every row the insertion leaves unchanged (see newTable).
// Pairs already present in t.G are ignored. The simulator does not
// call it (a scheduled run re-derives its live table from the pristine
// one); its callers are the benchmark's routing layer panel, which
// times it (routing.restore_ms), and FuzzRepairRestore.
func (t *Table) Restore(added [][2]int32) *Table {
	return newTable(t.G.AddEdges(added), t.store, t)
}

// newTable is the one build path behind NewTableOpts, Repair and
// Restore; it resolves store from g's size. prev, when non-nil, is the
// table over the same vertex set that Repair or Restore derives from.
// An eager table shares prev's row toward a destination whose new
// distances all equal that row (its cells) instead of encoding a fresh
// one, so a table derived from a damaged or augmented graph costs
// memory only where distances changed, exactly as if it had been
// updated in place. A lazy table takes only prev's working-set cap:
// its rows are computed on demand from its own graph. A packed table
// of a graph with a Cayley view builds no rows (newCayleyTable), and a
// Cayley prev has none to share. Graphs derived by RemoveEdges and
// AddEdges carry no view, so Repair and Restore always build rows.
func newTable(g *graph.Graph, store Store, prev *Table) *Table {
	n := g.N()
	t := &Table{G: g, store: store.resolve(n)}
	switch t.store {
	case StoreLazy:
		var limit int
		if prev != nil && prev.lazy != nil {
			limit = prev.lazy.cap
		}
		t.lazy = newLazyTable(g, limit)
		return t
	case StorePacked:
		if t.cay = newCayleyTable(g); t.cay != nil {
			t.diam = int32(slices.Max(t.cay.dist))
			return t
		}
	default:
		t.store = StoreDense
	}
	if prev != nil && prev.rows == nil {
		prev = nil // a Cayley table has no rows to share
	}
	t.rows = make([]packedRow, n)
	minBits := t.store.minBits()
	g.EachBFS(func() func(int, []int32) {
		return func(d int, dist []int32) {
			if prev != nil && prev.rows[d].equals(dist) {
				t.rows[d] = prev.rows[d] // unchanged: share the row
				return
			}
			t.rows[d] = encodeRow(dist, minBits) // copies the kernel's scratch
		}
	})
	t.diam = maxRowDist(t.rows)
	return t
}

// Store reports the storage backend the table was built with.
func (t *Table) Store() Store { return t.store }

// MemoryBytes returns the approximate payload size of the distance
// store: 4 bytes per cell plus the 2-bit next-hop view for dense tables
// (n²·4 + n·⌈n/4⌉), each row's payload plus 8 bytes of per-row
// overhead for packed ones. A packed table on a Cayley graph counts
// its n-byte identity distances plus the view it routes through
// (graph.Cayley.Bytes). For lazy tables this counts only the resident
// working set (plus fixed per-destination bookkeeping), so the value
// tracks actual footprint as rows come and go.
func (t *Table) MemoryBytes() int64 {
	if t.lazy != nil {
		return t.lazy.memoryBytes()
	}
	if t.cay != nil {
		return t.cay.bytes()
	}
	var b int64
	for i := range t.rows {
		b += t.rows[i].bytes()
	}
	if t.store == StorePacked {
		b += 8 * int64(len(t.rows))
	}
	return b
}

// Diameter returns the largest finite hop distance. Dense and packed
// tables know it from construction; a lazy table computes it on first
// call with a full graph.EachBFS sweep (retaining nothing) and
// memoizes it.
func (t *Table) Diameter() int {
	if t.lazy != nil {
		return int(t.lazy.diameter())
	}
	return int(t.diam)
}

// row returns the distance row toward dest, materializing it first on
// lazy tables.
func (t *Table) row(dest int) *packedRow {
	if t.lazy != nil {
		return t.lazy.row(dest)
	}
	return &t.rows[dest]
}

// HopDist returns the hop distance from v to dest (-1 if unreachable).
func (t *Table) HopDist(v, dest int) int32 {
	if t.cay != nil {
		return t.cay.hopDist(v, dest)
	}
	return t.row(dest).at(v)
}

// nextHopSlots appends to slots, in slot order, the index in
// G.Neighbors(v) of every neighbour of v one hop closer to dest, and
// returns the extended slice; it appends nothing when v == dest or
// dest is unreachable. A 32-bit row is scanned through its mod-3 view
// (see packedRow), a narrower one through its cells; both find the
// same slots.
func (t *Table) nextHopSlots(v, dest int, slots []int32) []int32 {
	if t.cay != nil {
		return t.cay.nextHopSlots(v, dest, slots)
	}
	row := t.row(dest)
	nb := t.G.Neighbors(v)
	if row.bits == 32 {
		cv := row.code(v)
		if v == dest || cv == codeUnreachable {
			return slots
		}
		want := cv + 2 // code of distance d(v)-1
		if want >= 3 {
			want -= 3
		}
		for i, w := range nb {
			if row.code(int(w)) == want {
				slots = append(slots, int32(i))
			}
		}
		return slots
	}
	dv := row.at(v)
	if dv <= 0 {
		return slots
	}
	for i, w := range nb {
		if row.at(int(w)) == dv-1 {
			slots = append(slots, int32(i))
		}
	}
	return slots
}

// NextHopRandom returns a uniformly random next hop from v toward dest,
// or -1 when none exists. Random selection over the equal-cost set is
// the path-diversity mechanism the paper credits for SpectralFly's
// minimal-routing performance (§VI-C).
func (t *Table) NextHopRandom(v, dest int, rng *rand.Rand) int32 {
	slot := t.NextHopSlot(v, dest, rng)
	if slot < 0 {
		return -1
	}
	return t.G.Neighbors(v)[slot]
}

// NextHopSlot is NextHopRandom returning the chosen hop's index in
// G.Neighbors(v) — the port slot — instead of its router id, or -1
// when none exists. Both draw identically from rng: one Intn per
// candidate, in slot order.
func (t *Table) NextHopSlot(v, dest int, rng *rand.Rand) int {
	var buf [64]int32 // the candidates stay on the stack up to 64
	chosen := -1
	for k, slot := range t.nextHopSlots(v, dest, buf[:0]) {
		// Reservoir sampling: one Intn per candidate in slot order,
		// the draw sequence every simulation golden pins.
		if rng.Intn(k+1) == 0 {
			chosen = int(slot)
		}
	}
	return chosen
}

// VirtualChannels returns the VC count required for deadlock freedom
// under the paper's hop-incrementing scheme (§V-A): diameter+1 for
// minimal routing and 2·diameter+1 for Valiant/UGAL paths.
func VirtualChannels(policy Policy, diameter int) int {
	if policy == Minimal {
		return diameter + 1
	}
	return 2*diameter + 1
}
