package routing

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Store selects the distance-storage backend of a Table. Every backend
// stores the same row format (packedRow) and differs only in whether
// rows carry the next-hop view and in when rows are computed; the
// packed store of an intact Cayley graph stores no rows (cayleyTable).
// All three expose
// bit-identical distances (and therefore identical routes and
// simulation statistics); they trade memory for per-lookup cost and
// build laziness. The zero value leaves the choice to the table, which
// makes it from the graph's size (see denseMaxRouters). See DESIGN.md
// §7 for the memory model.
type Store int

const (
	// storeBySize, the zero value, is dense rows up to denseMaxRouters
	// routers and packed above.
	storeBySize Store = iota
	// StoreDense keeps every destination's row as a packed row plus a
	// 2-bit distance-mod-3 view that the next-hop scan reads instead
	// of the cells: n·⌈n/2⌉ + n·⌈n/4⌉ ≈ 0.75·n² bytes when every row
	// fits 4-bit cells, as on every low-diameter instance.
	StoreDense
	// StorePacked packs each destination's distances into 4-bit
	// nibbles (n² / 2 bytes, two thirds of dense) — Ramanujan
	// instances have diameter ≤ ~7, so hop distances plus the
	// unreachable sentinel fit comfortably. Rows whose distances
	// overflow the nibble range (deep damage, pathological graphs)
	// fall back per row to bytes and then to full int32, so
	// correctness never depends on the diameter assumption. On an
	// intact Cayley graph (every topo.LPS graph) packed is the group
	// view: one byte of identity distance per vertex plus the
	// graph.Cayley arrays, O(n·k) instead of n²/2 (cayleyTable).
	StorePacked
	// StoreLazy materializes packed rows on demand (one BFS per first
	// touch of a destination) and keeps at most max(n/8, 64) of them
	// under an LRU discipline. Sweeps that only touch a subset of
	// destinations never pay for the rest; memory is bounded by the
	// working set, not n².
	StoreLazy
)

// denseMaxRouters is the largest graph the zero Store builds dense
// rows for; larger graphs get packed rows (on an intact LPS graph, the
// Cayley table). Dense rows route faster: the view adds half the
// 4-bit cells' bytes again, so a dense table costs about 0.75·n²
// bytes, 12.6 MB at 4,096 routers. Every instance of the paper's load
// sweeps (§VI-B, at most 1,458 routers) is therefore dense, where
// dense beat packed on wall time in every measured pair; every Table
// II scale rung (12,180 to 39,732 routers, where dense would take 0.1
// to 1.2 GB against a few MB for the Cayley table) is packed.
const denseMaxRouters = 4096

func (s Store) String() string {
	switch s {
	case StoreDense:
		return "dense"
	case StorePacked:
		return "packed"
	case StoreLazy:
		return "lazy"
	}
	return fmt.Sprintf("store(%d)", int(s))
}

// resolve returns the store a table over n routers is built in: s
// itself when chosen, otherwise dense up to denseMaxRouters and packed
// above.
func (s Store) resolve(n int) Store {
	switch {
	case s != storeBySize:
		return s
	case n <= denseMaxRouters:
		return StoreDense
	}
	return StorePacked
}

// TableOptions configures NewTableOpts.
type TableOptions struct {
	// Store overrides the distance-storage backend; the zero value
	// picks it from the graph's size (dense up to 4,096 routers,
	// packed above).
	Store Store
}

// Row encoding: a distance d ∈ {-1, 0, 1, ...} is stored as d+1 in
// 4- and 8-bit cells, so 0 is the unreachable sentinel and the value
// range of a width-w cell is [-1, 2^w-2]; 32-bit cells hold d itself,
// little-endian.
const (
	nibbleMaxDist = 14  // largest distance a 4-bit cell can hold
	byteMaxDist   = 254 // largest distance an 8-bit cell can hold
)

// codeUnreachable is the 2-bit view code of an unreachable vertex; a
// reachable vertex at distance d has code d mod 3.
const codeUnreachable = 3

// packedRow is one destination's distance vector, the one row format
// of every Table. Its cells are 4, 8 or 32 bits wide, the narrowest
// that fits the row's largest finite distance. Its bytes are never
// written after encodeRow returns, so tables may share a row (Repair
// and Restore copy an unchanged row, which shares its cells and its
// view) and read it concurrently. Eager tables hold rows by value, so
// a lookup reads the row header from one contiguous slice before its
// cells.
//
// A dense row also carries its distances mod 3, four vertices per byte
// (codeUnreachable marks unreachable), in view: the next-hop view. A
// neighbour w of a reachable vertex v has d(w) ∈ {d(v)-1, d(v),
// d(v)+1}, three values distinct mod 3, so w is a next hop exactly when
// its code is (code(v)+2) mod 3. The neighbour scan therefore reads
// one 2-bit code per neighbour and never decodes a cell (DESIGN.md
// §7). The view is an allocation of its own, so the views of a table's
// rows lie together in memory rather than strided between their cells:
// with one allocation per row, churn-repair ran about 5% slower.
type packedRow struct {
	bits  uint8   // cell width: 4, 8 or 32
	maxd  int32   // largest finite distance in the row
	cells []uint8 // 4-bit cells two per byte, 8-bit cells one per byte, or 32-bit cells four bytes each
	view  []uint8 // the 2-bit mod-3 view, four vertices per byte (dense rows only; nil otherwise)
}

// encodeRow stores a distance vector at the narrowest width that fits
// its largest finite distance and, when view is set (every row of a
// dense table), its mod-3 next-hop view. After one scan for the
// largest distance, one pass writes the cells and the view together,
// four vertices (one view byte) at a time, so no byte but those of a
// partial tail is read back and rewritten. The row never retains dist
// (the build hands it the kernel's scratch).
func encodeRow(dist []int32, view bool) packedRow {
	n := len(dist)
	r := packedRow{maxd: maxDist(dist)}
	var cellBytes int
	switch {
	case r.maxd <= nibbleMaxDist:
		r.bits, cellBytes = 4, (n+1)/2
	case r.maxd <= byteMaxDist:
		r.bits, cellBytes = 8, n
	default:
		r.bits, cellBytes = 32, 4*n
	}
	r.cells = make([]uint8, cellBytes)
	if view {
		r.view = make([]uint8, (n+3)/4)
	}
	full := n &^ 3
	for v := 0; v < full; v += 4 {
		d := dist[v : v+4 : v+4]
		switch r.bits {
		case 4:
			c := r.cells[v>>1 : v>>1+2 : v>>1+2]
			c[0] = uint8(d[0]+1) | uint8(d[1]+1)<<4
			c[1] = uint8(d[2]+1) | uint8(d[3]+1)<<4
		case 8:
			c := r.cells[v : v+4 : v+4]
			c[0], c[1], c[2], c[3] = uint8(d[0]+1), uint8(d[1]+1), uint8(d[2]+1), uint8(d[3]+1)
		default:
			for i, x := range d {
				binary.LittleEndian.PutUint32(r.cells[4*(v+i):], uint32(x))
			}
		}
		if view {
			r.view[v>>2] = mod3(d[0]) | mod3(d[1])<<2 | mod3(d[2])<<4 | mod3(d[3])<<6
		}
	}
	for v := full; v < n; v++ {
		d := dist[v]
		switch r.bits {
		case 4:
			r.cells[v>>1] |= uint8(d+1) << ((uint(v) & 1) << 2)
		case 8:
			r.cells[v] = uint8(d + 1)
		default:
			binary.LittleEndian.PutUint32(r.cells[4*v:], uint32(d))
		}
		if view {
			r.view[v>>2] |= mod3(d) << ((uint(v) & 3) << 1)
		}
	}
	return r
}

// mod3 returns the view code of a distance d ≥ -1: d mod 3, or
// codeUnreachable for -1 (uint32(-1) = 2³²-1 is divisible by 3, and
// the sign bit supplies the code).
func mod3(d int32) uint8 {
	return uint8(uint32(d)%3) | uint8(d>>31)&codeUnreachable
}

// maxDist returns the largest entry of dist (-1 when every vertex is
// unreachable).
func maxDist(dist []int32) int32 {
	maxd := int32(-1)
	for _, d := range dist {
		maxd = max(maxd, d)
	}
	return maxd
}

// maxRowDist returns the largest finite distance across rows (0 for
// none).
func maxRowDist(rows []packedRow) int32 {
	var diam int32
	for i := range rows {
		diam = max(diam, rows[i].maxd)
	}
	return diam
}

// at returns the stored distance of vertex v (-1 unreachable). The
// 4-bit test comes first (a switch would be reordered by value): it is
// the width of every row of a low-diameter instance, so a lookup there
// costs one compare before its nibble read.
func (r *packedRow) at(v int) int32 {
	if r.bits == 4 {
		return int32(r.cells[v>>1]>>((uint(v)&1)<<2)&0xf) - 1
	}
	if r.bits == 8 {
		return int32(r.cells[v]) - 1
	}
	return int32(binary.LittleEndian.Uint32(r.cells[4*v:]))
}

// code returns the mod-3 view code of vertex v in a dense row.
func (r *packedRow) code(v int) uint8 {
	return r.view[v>>2] >> ((uint(v) & 3) << 1) & 3
}

// equals reports whether the row holds exactly the distances in dist.
func (r *packedRow) equals(dist []int32) bool {
	for v, d := range dist {
		if r.at(v) != d {
			return false
		}
	}
	return true
}

// bytes returns the payload size of the row.
func (r *packedRow) bytes() int64 {
	return int64(len(r.cells)) + int64(len(r.view))
}

// cayleyTable is the packed store of an intact Cayley graph (a graph
// with a graph.Cayley view, as topo.LPS builds). Left multiplication
// is an automorphism, so d(v, dest) = dist[x] with x = v⁻¹·dest and
// dist the distances from the identity, and the neighbour v·s of v is
// a next hop exactly when dist[s⁻¹·x] = dist[x] - 1. The table holds
// dist and the view instead of n rows: O(n·k) state, built by one BFS.
type cayleyTable struct {
	view *graph.Cayley
	dist []uint8
}

// newCayleyTable returns the Cayley store of g, or nil when g has no
// view or is too deep or disconnected for byte distances.
func newCayleyTable(g *graph.Graph) *cayleyTable {
	view := g.Cayley()
	if view == nil {
		return nil
	}
	d := make([]int32, g.N())
	g.BFS(view.Identity, d, nil)
	if maxd := maxDist(d); maxd > 255 || slices.Contains(d, -1) {
		return nil
	}
	c := &cayleyTable{view: view, dist: make([]uint8, len(d))}
	for x, dx := range d {
		c.dist[x] = uint8(dx)
	}
	return c
}

// hopDist returns d(v, dest).
func (c *cayleyTable) hopDist(v, dest int) int32 {
	return int32(c.dist[c.view.Quot(v, dest)])
}

// nextHopSlots appends the slots of v's neighbours one hop closer to
// dest, in slot order, as Table.nextHopSlots does for rows.
func (c *cayleyTable) nextHopSlots(v, dest int, slots []int32) []int32 {
	x := c.view.Quot(v, dest)
	dx := c.dist[x]
	if dx == 0 {
		return slots
	}
	for i, j := range c.view.Gens(v) {
		if c.dist[c.view.Left[c.view.Inv[j]][x]] == dx-1 {
			slots = append(slots, int32(i))
		}
	}
	return slots
}

// bytes returns the distance vector plus the view it routes through.
func (c *cayleyTable) bytes() int64 {
	return int64(len(c.dist)) + c.view.Bytes()
}

// lazyTable materializes packed rows on demand and keeps at most cap
// of them resident, evicting approximately least-recently-used rows.
// The hot read path is lock-free: rows[dest] is an atomic pointer to
// an immutable packedRow, and recency is a per-destination atomic
// stamp of the materialization epoch (rows touched since the last miss
// share a stamp, so the LRU is exact at epoch granularity). Misses
// serialize on mu: one BFS per first touch, then an O(resident)
// eviction scan.
type lazyTable struct {
	g   *graph.Graph
	cap int

	rows    []atomic.Pointer[packedRow]
	lastUse []atomic.Int64
	epoch   atomic.Int64

	mu       sync.Mutex
	resident []int32 // destinations currently materialized

	diamOnce sync.Once
	diam     int32
}

// newLazyTable returns an empty lazy table over g holding at most
// limit rows; 0 selects max(n/8, 64).
func newLazyTable(g *graph.Graph, limit int) *lazyTable {
	n := g.N()
	if limit <= 0 {
		limit = max(n/8, 64)
	}
	return &lazyTable{
		g:       g,
		cap:     limit,
		rows:    make([]atomic.Pointer[packedRow], n),
		lastUse: make([]atomic.Int64, n),
	}
}

// row returns the packed distance row toward dest, materializing it on
// first touch.
func (lt *lazyTable) row(dest int) *packedRow {
	if r := lt.rows[dest].Load(); r != nil {
		lt.lastUse[dest].Store(lt.epoch.Load())
		return r
	}
	return lt.materialize(dest)
}

func (lt *lazyTable) materialize(dest int) *packedRow {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if r := lt.rows[dest].Load(); r != nil {
		return r // raced with another materializer
	}
	dist := make([]int32, lt.g.N())
	lt.g.BFS(dest, dist, nil)
	pr := encodeRow(dist, false)
	if len(lt.resident) >= lt.cap {
		mi := 0
		for i, d := range lt.resident {
			if lt.lastUse[d].Load() < lt.lastUse[lt.resident[mi]].Load() {
				mi = i
			}
		}
		evicted := lt.resident[mi]
		lt.rows[evicted].Store(nil)
		lt.resident[mi] = lt.resident[len(lt.resident)-1]
		lt.resident = lt.resident[:len(lt.resident)-1]
	}
	lt.lastUse[dest].Store(lt.epoch.Add(1))
	lt.rows[dest].Store(&pr)
	lt.resident = append(lt.resident, int32(dest))
	return &pr
}

// residentRows returns the number of materialized rows.
func (lt *lazyTable) residentRows() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.resident)
}

// diameter computes the largest finite hop distance on first call (a
// full graph.EachBFS sweep that retains nothing) and memoizes it.
func (lt *lazyTable) diameter() int32 {
	lt.diamOnce.Do(func() {
		n := lt.g.N()
		maxes := make([]int32, n) // per source
		lt.g.EachBFS(func() func(int, []int32) {
			return func(d int, dist []int32) { maxes[d] = maxDist(dist) }
		})
		for _, d := range maxes {
			lt.diam = max(lt.diam, d)
		}
	})
	return lt.diam
}

// memoryBytes returns the resident payload plus fixed bookkeeping.
func (lt *lazyTable) memoryBytes() int64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	b := int64(len(lt.rows))*16 + int64(len(lt.lastUse))*8
	for _, d := range lt.resident {
		if r := lt.rows[d].Load(); r != nil {
			b += r.bytes()
		}
	}
	return b
}
