// Timed topology events: where Plan describes damage that exists for
// the whole life of a run, a Schedule describes damage (and recovery,
// and planned rewiring) that happens *while traffic flows*. The
// simulator applies each Change at its cycle — its run loop walks the
// schedule with an EdgeCursor and applies changes between drains —
// and re-derives its routing table at each one (routing.Table.Repair
// for the cut direction, Table.Restore for the restore direction, each
// sharing every unchanged row) — see simnet's SetSchedule and
// DESIGN.md §10.
//
// Like Plan, a Schedule built by the constructors here is a pure value
// sampled from a seed: the same (spec, graph, seed) always yields the
// same Schedule, so sweep grids stay bit-identical across worker
// counts.

package fault

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Change is one timed topology event: at Cycle, the listed links are
// cut and routers killed, then the listed links restored and routers
// revived (cuts apply before restores, so a single Change expresses
// one rewiring step). All link pairs refer to edges of the *base*
// topology the schedule runs against; a cut of a link already down, or
// a restore of a link already up, is a no-op (the simulator filters to
// the effective delta before repairing its table), which makes
// overlapping hand-built schedules safe.
type Change struct {
	Cycle   int64
	Cut     [][2]int32
	Restore [][2]int32
	Kill    []int32
	Revive  []int32
}

// Schedule is a sequence of timed topology events, sorted by cycle.
// The zero value (empty schedule) means a static topology; every
// simulator contract (bit-identical goldens, shard-count invariance)
// is unchanged by an empty schedule.
type Schedule []Change

// Validate checks the schedule against the base topology it will run
// on: cycles nonnegative and nondecreasing, every Cut/Restore pair an
// edge of g, every Kill/Revive router id in range. Constructors always
// produce valid schedules; hand-built ones should be validated before
// handing them to the simulator (which enforces the same conditions).
func (s Schedule) Validate(g *graph.Graph) error {
	n := int32(g.N())
	var prev int64
	for i, ch := range s {
		if ch.Cycle < 0 {
			return fmt.Errorf("fault: schedule change %d at negative cycle %d", i, ch.Cycle)
		}
		if ch.Cycle < prev {
			return fmt.Errorf("fault: schedule change %d at cycle %d before cycle %d", i, ch.Cycle, prev)
		}
		prev = ch.Cycle
		for _, e := range ch.Cut {
			if !g.HasEdge(int(e[0]), int(e[1])) {
				return fmt.Errorf("fault: schedule change %d cuts non-edge (%d,%d)", i, e[0], e[1])
			}
		}
		for _, e := range ch.Restore {
			if !g.HasEdge(int(e[0]), int(e[1])) {
				return fmt.Errorf("fault: schedule change %d restores non-edge (%d,%d)", i, e[0], e[1])
			}
		}
		for _, r := range ch.Kill {
			if r < 0 || r >= n {
				return fmt.Errorf("fault: schedule change %d kills router %d out of range [0,%d)", i, r, n)
			}
		}
		for _, r := range ch.Revive {
			if r < 0 || r >= n {
				return fmt.Errorf("fault: schedule change %d revives router %d out of range [0,%d)", i, r, n)
			}
		}
	}
	return nil
}

// EdgeCursor walks a Schedule's changes in order for a time-windowed
// engine. The conservative-PDES simulator drains events in lookahead
// windows, and a window must never span a change cycle: the engine
// clips each window to end no later than Peek's cycle, and at every
// window barrier applies each change Due at the barrier's time before
// draining on. One cursor serves one run; changes are consumed exactly
// once, in schedule order.
type EdgeCursor struct {
	s Schedule
	i int
}

// Cursor returns a cursor positioned before the schedule's first
// change. It works on empty schedules (Due and Peek report nothing).
func (s Schedule) Cursor() *EdgeCursor { return &EdgeCursor{s: s} }

// Due consumes and returns the index of the next pending change whose
// cycle is at or before now; ok is false when no pending change is
// due. Callers loop until ok is false — several changes can share a
// barrier — and passing now = math.MaxInt64 drains the tail of a
// schedule whose last changes fall after the final event.
func (c *EdgeCursor) Due(now int64) (ci int, ok bool) {
	if c.i >= len(c.s) || c.s[c.i].Cycle > now {
		return 0, false
	}
	c.i++
	return c.i - 1, true
}

// Peek returns the cycle of the next pending change without consuming
// it; ok is false once the schedule is exhausted.
func (c *EdgeCursor) Peek() (cycle int64, ok bool) {
	if c.i >= len(c.s) {
		return 0, false
	}
	return c.s[c.i].Cycle, true
}

// ChurnSpec describes a repeating fail-and-recover pattern: every
// Period cycles a fresh Plan-style damage sample (Kind, Fraction,
// RegionSize — the same models as Plan) strikes, and Outage cycles
// later the same links and routers come back. Onsets are at Period,
// 2·Period, …, Repeats·Period, so the run always starts intact, and
// Outage < Period keeps outages non-overlapping — each onset samples
// against the fully restored base topology.
type ChurnSpec struct {
	Kind       Kind
	Fraction   float64
	RegionSize int
	// Period is the cycle count between onsets (> 0).
	Period int64
	// Outage is how long each outage lasts, in (0, Period).
	Outage int64
	// Repeats is the onset count (<= 0 defaults to 1).
	Repeats int
	// Seed drives the sampling; onset k derives its own plan seed from
	// it, so every outage hits a different random set.
	Seed int64
}

func (c ChurnSpec) repeats() int {
	if c.Repeats <= 0 {
		return 1
	}
	return c.Repeats
}

// Validate reports an error when the pattern cannot be sampled: a
// Period that is not positive, an Outage outside (0, Period), or a
// damage model (Kind, Fraction) that Plan.Validate rejects.
func (c ChurnSpec) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("fault: churn period %d must be positive", c.Period)
	}
	if c.Outage <= 0 || c.Outage >= c.Period {
		return fmt.Errorf("fault: churn outage %d must lie in (0, period %d)", c.Outage, c.Period)
	}
	return Plan{Kind: c.Kind, Fraction: c.Fraction}.Validate()
}

// Schedule samples the churn pattern against g. Router and region
// churn includes every incident link in the Cut (so the repaired
// routing table routes around the dead routers) and brings the same
// links back at revival. It returns Validate's error on a malformed
// pattern.
func (c ChurnSpec) Schedule(g *graph.Graph) (Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var s Schedule
	for k := 0; k < c.repeats(); k++ {
		plan := Plan{
			Kind:       c.Kind,
			Fraction:   c.Fraction,
			RegionSize: c.RegionSize,
			// The golden-ratio stride decorrelates consecutive onsets the
			// same way the simulator's per-endpoint streams are split.
			Seed: c.Seed + int64(k)*-0x61c8864680b583eb + 1,
		}
		out := plan.Apply(g)
		var kill []int32
		for r, dead := range out.DeadRouters {
			if dead {
				kill = append(kill, int32(r))
			}
		}
		onset := int64(k+1) * c.Period
		s = append(s,
			Change{Cycle: onset, Cut: out.Removed, Kill: kill},
			Change{Cycle: onset + c.Outage, Restore: out.Removed, Revive: kill},
		)
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].Cycle < s[j].Cycle })
	return s, nil
}

// Rewiring builds the planned-reconfiguration schedule of an optically
// rewireable fabric: the simulated base topology is the UNION of every
// configuration's edge set, and at any moment exactly one
// configuration's edges are up. Cycle 0 activates configs[0] (cutting
// every union edge outside it); every period cycles thereafter the
// fabric steps to the next configuration (cutting the edges leaving
// the active set, restoring the ones entering it), wrapping around
// after the last. steps counts the rewiring steps after the initial
// activation (<= 0 means none: configs[0] stays up for the whole run).
//
// Each config edge list may be in any order or orientation; the
// returned changes carry normalized (u < v) pairs in sorted order, so
// the schedule is a pure value of its inputs.
func Rewiring(configs [][][2]int32, period int64, steps int) (Schedule, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("fault: rewiring needs at least one configuration")
	}
	if steps > 0 && period <= 0 {
		return nil, fmt.Errorf("fault: rewiring period %d must be positive", period)
	}
	sets := make([]map[[2]int32]struct{}, len(configs))
	union := make(map[[2]int32]struct{})
	for i, cfg := range configs {
		sets[i] = make(map[[2]int32]struct{}, len(cfg))
		for _, e := range cfg {
			u, v := e[0], e[1]
			if u == v {
				return nil, fmt.Errorf("fault: rewiring config %d has self-loop at %d", i, u)
			}
			if u > v {
				u, v = v, u
			}
			sets[i][[2]int32{u, v}] = struct{}{}
			union[[2]int32{u, v}] = struct{}{}
		}
	}
	diff := func(from, to map[[2]int32]struct{}) (cut, restore [][2]int32) {
		for e := range from {
			if _, ok := to[e]; !ok {
				cut = append(cut, e)
			}
		}
		for e := range to {
			if _, ok := from[e]; !ok {
				restore = append(restore, e)
			}
		}
		sortEdges(cut)
		sortEdges(restore)
		return cut, restore
	}
	s := Schedule{}
	if cut, _ := diff(union, sets[0]); len(cut) > 0 {
		s = append(s, Change{Cycle: 0, Cut: cut})
	}
	for k := 1; k <= steps; k++ {
		from := sets[(k-1)%len(sets)]
		to := sets[k%len(sets)]
		cut, restore := diff(from, to)
		if len(cut) == 0 && len(restore) == 0 {
			continue
		}
		s = append(s, Change{Cycle: int64(k) * period, Cut: cut, Restore: restore})
	}
	return s, nil
}

// sortEdges orders normalized pairs lexicographically so map-derived
// edge lists are deterministic.
func sortEdges(edges [][2]int32) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
}
