package routing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Store selects the distance-storage backend of a Table. Every backend
// stores the same row format (packedRow) and differs only in the row
// width floor and in when rows are computed. All three expose
// bit-identical distances (and therefore identical routes, sampled
// paths and simulation statistics); they trade memory for per-lookup
// cost and build laziness. See DESIGN.md §7 for the memory model.
type Store int

const (
	// StoreDense keeps every destination's row at the 32-bit width:
	// int32 distances, n² · 4 bytes. Fastest lookups; the default, and
	// the only practical choice for tiny instances.
	StoreDense Store = iota
	// StorePacked packs each destination's distances into 4-bit
	// nibbles (n² / 2 bytes, an 8× cut over dense) — Ramanujan
	// instances have diameter ≤ ~7, so hop distances plus the
	// unreachable sentinel fit comfortably. Rows whose distances
	// overflow the nibble range (deep damage, pathological graphs)
	// fall back per row to bytes and then to full int32, so
	// correctness never depends on the diameter assumption.
	StorePacked
	// StoreLazy materializes packed rows on demand (one BFS per first
	// touch of a destination) and keeps at most MaxResident of them
	// under an LRU discipline. Sweeps that only touch a subset of
	// destinations never pay for the rest; memory is bounded by the
	// working set, not n².
	StoreLazy
)

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

// ParseStore maps a backend name ("dense", "packed", "lazy") to its
// Store value.
func ParseStore(name string) (Store, error) {
	switch name {
	case "dense":
		return StoreDense, nil
	case "packed":
		return StorePacked, nil
	case "lazy":
		return StoreLazy, nil
	}
	return 0, fmt.Errorf("routing: unknown store %q (want dense, packed or lazy)", name)
}

// TableOptions configures NewTableOpts.
type TableOptions struct {
	// Store selects the distance-storage backend (default StoreDense).
	Store Store
	// MaxResident bounds the StoreLazy working set in rows; 0 selects
	// max(n/8, 64). Ignored by the other backends.
	MaxResident int
}

// minBits is the row width floor of the store: dense rows are pinned
// at 32 bits, packed (and lazy) rows start at 4.
func (s Store) minBits() uint8 {
	if s == StoreDense {
		return 32
	}
	return 4
}

// Row encoding: a distance d ∈ {-1, 0, 1, ...} is stored as d+1 in
// 4- and 8-bit cells, so 0 is the unreachable sentinel and the value
// range of a width-w cell is [-1, 2^w-2]; 32-bit cells hold d itself.
const (
	nibbleMaxDist = 14  // largest distance a 4-bit cell can hold
	byteMaxDist   = 254 // largest distance an 8-bit cell can hold
)

// packedRow is one destination's distance vector, the one row format
// of every Table. Its cells are never written after encodeRow returns,
// so tables may share them (Repair and Restore copy an unchanged row,
// which shares its cells) and read them concurrently. Eager tables
// hold rows by value, so a lookup reads the row header from one
// contiguous slice before its cells.
type packedRow struct {
	bits uint8   // cell width: 4, 8 or 32
	maxd int32   // largest finite distance in the row
	nib  []uint8 // 4-bit cells packed two per byte (bits==4) or one byte per cell (bits==8)
	wide []int32 // raw distances (bits==32)
}

// encodeRow stores a distance vector at the narrowest width, no
// narrower than minBits, that fits its largest finite distance. A
// 32-bit row adopts dist as its storage instead of copying it, so the
// caller hands dist over and must not write it again; narrower rows
// never retain dist.
func encodeRow(dist []int32, minBits uint8) packedRow {
	maxd := maxDist(dist)
	switch {
	case minBits <= 4 && maxd <= nibbleMaxDist:
		nib := make([]uint8, (len(dist)+1)/2)
		for v, d := range dist {
			nib[v>>1] |= uint8(d+1) << ((uint(v) & 1) << 2)
		}
		return packedRow{bits: 4, maxd: maxd, nib: nib}
	case minBits <= 8 && maxd <= byteMaxDist:
		nib := make([]uint8, len(dist))
		for v, d := range dist {
			nib[v] = uint8(d + 1)
		}
		return packedRow{bits: 8, maxd: maxd, nib: nib}
	default:
		return packedRow{bits: 32, maxd: maxd, wide: dist}
	}
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
// 32-bit test comes first (a switch would be reordered by value), so a
// dense lookup costs one compare over a raw []int32 read.
func (r *packedRow) at(v int) int32 {
	if r.bits == 32 {
		return r.wide[v]
	}
	if r.bits == 4 {
		return int32(r.nib[v>>1]>>((uint(v)&1)<<2)&0xf) - 1
	}
	return int32(r.nib[v]) - 1
}

// view returns the row as a distance vector the caller must not
// write: a 32-bit row's own storage, uncopied, or else the row decoded
// into scratch, which must have the row's length.
func (r *packedRow) view(scratch []int32) []int32 {
	switch r.bits {
	case 4:
		for v := range scratch {
			scratch[v] = int32(r.nib[v>>1]>>((uint(v)&1)<<2)&0xf) - 1
		}
	case 8:
		for v := range scratch {
			scratch[v] = int32(r.nib[v]) - 1
		}
	default:
		return r.wide
	}
	return scratch
}

// bytes returns the payload size of the row.
func (r *packedRow) bytes() int64 {
	return int64(len(r.nib)) + 4*int64(len(r.wide))
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

func newLazyTable(g *graph.Graph, maxResident int) *lazyTable {
	n := g.N()
	if maxResident <= 0 {
		maxResident = n / 8
		if maxResident < 64 {
			maxResident = 64
		}
	}
	return &lazyTable{
		g:       g,
		cap:     maxResident,
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
	pr := encodeRow(dist, StoreLazy.minBits())
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
// full BFS sweep that retains nothing) and memoizes it.
func (lt *lazyTable) diameter() int32 {
	lt.diamOnce.Do(func() {
		n := lt.g.N()
		maxes := make([]int32, n) // per source
		graph.EachSource(n, func() func(int) {
			dist := make([]int32, n)
			queue := make([]int32, n)
			return func(d int) {
				lt.g.BFS(d, dist, queue)
				maxes[d] = maxDist(dist)
			}
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
