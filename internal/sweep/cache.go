package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/traffic"
	"repro/internal/version"
)

// CellCache is the content-addressed result store consulted by
// Grid.Run when Options.Cache is set. Keys are the per-cell content
// keys of ContentKeys; values are EncodePayload documents. Both
// methods must be safe for concurrent use; Put is best-effort (a
// store that drops writes only costs recomputation, never
// correctness). *service.Cache implements it.
type CellCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte)
}

// Payload is the cached measurement of one successfully completed
// cell — everything Result carries beyond the cell identity itself.
// Failed cells are never cached, so a Payload always reflects a clean
// run.
type Payload struct {
	Stats      simnet.Stats `json:"stats"`
	Saturation float64      `json:"saturation,omitempty"`
}

// EncodePayload serializes a successful Result for the cache or the
// coordinator wire. JSON keeps payloads diffable and — because Go's
// encoder emits the shortest float representation that round-trips —
// decoding reproduces every statistic bit for bit.
func EncodePayload(res Result) ([]byte, error) {
	if res.Err != nil {
		return nil, fmt.Errorf("sweep: refusing to encode a failed cell: %w", res.Err)
	}
	return json.Marshal(Payload{Stats: res.Stats, Saturation: res.Saturation})
}

// DecodePayload parses an EncodePayload document.
func DecodePayload(b []byte) (Payload, error) {
	var p Payload
	err := json.Unmarshal(b, &p)
	return p, err
}

// graphDigest is the hex of a topology instance's wiring digest
// (graph.Graph.Digest): its vertex count plus its edge list in
// canonical order. Two instances with the same name but different
// wiring (a regenerated random topology, a different construction)
// therefore never share cell keys. The graph computes the digest once
// and keeps it, so replaying a grid over the same instances rehashes
// no topology.
func graphDigest(g *graph.Graph) string {
	d := g.Digest()
	return hex.EncodeToString(d[:])
}

// instanceDigest is graphDigest plus, only on an instance with a dead
// set, that set's digest, so every other instance keeps its keys.
func instanceDigest(inst Instance) string {
	d := graphDigest(inst.Inst.G)
	if inst.Dead != nil {
		h := sha256.New()
		fmt.Fprint(h, inst.Dead)
		d += "+dead:" + hex.EncodeToString(h.Sum(nil))
	}
	return d
}

// motifDigest hashes a motif's full message schedule. Motif names are
// display labels and not unique — the quick and full variants of an
// Ember motif share one — so only the rounds themselves identify the
// workload.
func motifDigest(m traffic.Motif) string {
	h := sha256.New()
	var buf [8]byte
	for _, round := range m.Rounds() {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(round)))
		h.Write(buf[:])
		for _, msg := range round {
			binary.LittleEndian.PutUint32(buf[:4], uint32(msg[0]))
			binary.LittleEndian.PutUint32(buf[4:], uint32(msg[1]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scheduleDigest hashes a fixed schedule change by change. Every list
// prints bracketed, so the text of a change is unambiguous; axis names
// are labels, so only the changes identify the schedule.
func scheduleDigest(s fault.Schedule) string {
	h := sha256.New()
	for _, ch := range s {
		fmt.Fprintf(h, "%d:%v:%v:%v:%v\n", ch.Cycle, ch.Cut, ch.Restore, ch.Kill, ch.Revive)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sharedKeyHeader is the per-grid prefix of every cell content key:
// the code version stamp plus every knob that shapes all cells alike.
// The shard count is not one: statistics are identical for every
// Options.Workers, so a cache filled at one worker count serves all.
func (g *Grid) sharedKeyHeader() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spectralfly-cell-v2\nversion=%s\nmeasure=%s\nseed=%d\nranks=%d\nmsgs=%d\n",
		version.Stamp(), g.Measure, g.Seed, g.Ranks, g.MsgsPerRank)
	switch g.Measure {
	case MeasureSaturation:
		fmt.Fprintf(&b, "latf=%v\ntol=%v\n", simnet.SaturationLatencyFactor, simnet.SaturationTol)
	case MeasureLoad:
		if g.ShiftPeriod > 0 {
			fmt.Fprintf(&b, "shift=%d", g.ShiftPeriod)
			for _, p := range g.ShiftPatterns {
				fmt.Fprintf(&b, ":%s", p)
			}
			b.WriteByte('\n')
		}
	}
	// The layout and tenant axes append only when active.
	if g.Layout.enabled() {
		fmt.Fprintf(&b, "layout=%s:%v:%d\n", g.Layout.Mode, layout.DefaultCyclesPerNs, g.Layout.Seed)
	}
	if len(g.Tenants.Specs) > 0 {
		fmt.Fprintf(&b, "tenants=%s:%d\n", g.Tenants.Policy, g.Tenants.Seed)
		for _, sp := range g.Tenants.Specs {
			fmt.Fprintf(&b, "tenant=%s:%s:%d:%v\n", sp.Name, sp.Pattern, sp.Ranks, sp.Load)
		}
	}
	return b.String()
}

// latencyDigest hashes a derived per-port latency table entry by
// entry. The table is a pure function of inputs the keys already
// commit to (graph, layout mode/knob/seed), but the wire-model
// constants live in code the version stamp may not cover in dev
// builds — hashing the concrete table means a model change can never
// replay a stale cell.
func latencyDigest(t *simnet.LinkLatencies) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(t.NIC))
	h.Write(buf[:])
	for _, row := range t.Port {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// contentKey builds one cell's content-addressed key from the grid's
// shared header and the cell's instance digest. extra carries the
// cell's group context — the fault-plan or schedule parameters that
// the default cell identity strings do not fully capture (e.g.
// FaultAxis.RegionSize changes the sampled plan but not the cell key).
// The pre-image is appended to buf[:0], returned for reuse, and spells
// every field as fmt's %d, %s and %v would: integers in decimal,
// Policy and Pattern by String, floats as strconv's shortest 'g' form.
func (g *Grid) contentKey(buf []byte, shared, digest string, c *Cell, extra string) (string, []byte) {
	ck := g.Keys.cellKey(c)
	b := append(buf[:0], shared...)
	b = append(b, "graph="...)
	b = append(b, digest...)
	b = append(b, "\nconc="...)
	b = strconv.AppendInt(b, int64(g.Instances[c.Instance].Concentration), 10)
	// The cell identity string, plus the fields it derives from spelled
	// out explicitly — custom Keys.CellKey formats may elide an axis, and
	// a key collision must cost a cache miss, never a wrong result.
	b = append(b, "\ncell="...)
	b = append(b, ck...)
	b = append(b, "\nsimseed="...)
	b = strconv.AppendInt(b, runner.DeriveSeed(g.Seed, ck), 10)
	b = append(b, "\npolicy="...)
	b = append(b, c.Policy.String()...)
	b = append(b, '\n')
	switch g.Measure {
	case MeasureMotif:
		b = append(b, "motif="...)
		b = append(b, c.MotifTag...)
		b = append(b, ':')
		b = append(b, motifDigest(c.Motif)...)
		b = append(b, '\n')
	case MeasureLoad:
		b = append(b, "pattern="...)
		b = append(b, c.Pattern.String()...)
		b = append(b, "\nload="...)
		b = strconv.AppendFloat(b, c.Load, 'g', -1, 64)
		b = append(b, '\n')
	}
	if extra != "" {
		b = append(b, extra...)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b
}

// ContentKeys returns one content-addressed cache key per cell, in
// Cells() order. A key commits to everything the cell's measurement
// depends on: the code version stamp, the grid's shared workload
// knobs, the instance's exact graph (its wiring digest, computed once
// per graph) and concentration, the cell identity and its derived
// simulation seed, and the cell's sampled fault-plan or schedule
// parameters. Two overlapping grids (say, differing only in an extra
// fault axis) share keys for the cells they have in common, so a cache
// warmed by one serves the other. The workers argument (callers pass
// their Options.Workers) no longer enters the keys: statistics do not
// depend on the shard count.
func (g *Grid) ContentKeys(workers int) ([]string, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g.contentKeys(g.deriver(), 0, -1)
}

// contentKeys is ContentKeys for the cells with Index in [lo, hi) (hi
// < 0 means the end of the grid), with a caller-supplied deriver, so
// Run shares one set of memoized placements between key computation
// and cell execution instead of optimizing every placement twice. The
// returned slice is indexed by cell Index and holds "" outside the
// range: a ranged run keys, and derives instance digests and latency
// tables for, only the cells it may look up.
func (g *Grid) contentKeys(d *deriver, lo, hi int) ([]string, error) {
	shared := g.sharedKeyHeader()
	digests := make([]string, len(g.Instances)) // "" until an instance's first cell in range
	digest := func(i int) (string, error) {
		if digests[i] != "" {
			return digests[i], nil
		}
		dg := instanceDigest(g.Instances[i])
		if g.Layout.enabled() {
			// Commit each instance's intact latency table. Damaged cells'
			// tables are re-derived from the same placement, pinned by the
			// fault-plan parameters their group context already carries.
			t, err := d.latencies(i, g.Instances[i].Inst.G)
			if err != nil {
				return "", err
			}
			dg += "+lat:" + latencyDigest(t)
		}
		digests[i] = dg
		return dg, nil
	}
	plan, all := g.groups()
	if hi < 0 || hi > len(all) {
		hi = len(all)
	}
	keys := make([]string, len(all))
	var buf []byte
	for _, gr := range plan {
		n := len(gr.cells)
		if n == 0 || gr.cells[n-1].Index < lo || gr.cells[0].Index >= hi {
			continue
		}
		// A damaged or reconfiguration trial's group context: the
		// fault-plan or schedule parameters its cells were sampled with.
		extra := make([]string, gr.trials)
		for trial := range extra {
			switch f, s := gr.fault, gr.sched; {
			case f != nil:
				extra[trial] = fmt.Sprintf("fault=%s:%v:%d:%d",
					f.Kind, f.Fraction, f.RegionSize, g.planSeed(gr.inst, f, trial))
			case s != nil && s.fixed():
				extra[trial] = "sched=fixed:" + scheduleDigest(s.Schedule)
			case s != nil:
				extra[trial] = fmt.Sprintf("sched=%s:%v:%d:%d:%d:%d:%d",
					s.Kind, s.Fraction, s.RegionSize, s.Period, s.Outage, s.Repeats, g.schedSeed(gr.inst, s, trial))
			}
		}
		for i := range gr.cells {
			c := &gr.cells[i]
			if c.Index < lo || c.Index >= hi {
				continue
			}
			dg, err := digest(c.Instance)
			if err != nil {
				return nil, err
			}
			keys[c.Index], buf = g.contentKey(buf, shared, dg, c, extra[c.Trial])
		}
	}
	return keys, nil
}

// Fingerprint returns the full grid identity: a digest over the code
// version stamp, every axis (instances with their exact graphs, by
// the same once-per-graph wiring digest the content keys use; faults,
// schedules, policies, patterns, motifs, loads) and every shared knob.
// Distributed runs use it as the coordinator/worker compatibility
// check — unlike the per-cell keys of ContentKeys, which deliberately
// exclude unrelated axes, the fingerprint pins the whole grid. It is
// computed once per grid, so it keeps fmt; TestContentKeySetsPinned
// pins its bytes. Like ContentKeys it takes the caller's
// Options.Workers and ignores it.
func (g *Grid) Fingerprint(workers int) (string, error) {
	if err := g.validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, "spectralfly-grid-v1\n")
	io.WriteString(h, g.sharedKeyHeader())
	fmt.Fprintf(h, "omitintact=%v\nshift=%d", g.OmitIntact, g.ShiftPeriod)
	for _, p := range g.ShiftPatterns {
		fmt.Fprintf(h, ":%s", p)
	}
	h.Write([]byte{'\n'})
	d := g.deriver()
	for i := range g.Instances {
		inst := g.Instances[i]
		fmt.Fprintf(h, "inst=%s:%d:%s", inst.Name, inst.Concentration, instanceDigest(inst))
		if g.Layout.enabled() {
			t, err := d.latencies(i, inst.Inst.G)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, ":lat=%s", latencyDigest(t))
		}
		h.Write([]byte{'\n'})
	}
	for _, f := range g.Faults {
		fmt.Fprintf(h, "fault=%s:%v:%d:%d\n", f.Kind, f.Fraction, f.RegionSize, f.trials())
	}
	for _, s := range g.Schedules {
		fmt.Fprintf(h, "sched=%s:%s:%v:%d:%d:%d:%d:%d",
			s.Name, s.Kind, s.Fraction, s.RegionSize, s.Period, s.Outage, s.Repeats, s.trials())
		if s.fixed() {
			fmt.Fprintf(h, ":fixed=%s", scheduleDigest(s.Schedule))
		}
		h.Write([]byte{'\n'})
	}
	for _, p := range g.Policies {
		fmt.Fprintf(h, "policy=%s\n", p)
	}
	for _, p := range g.Patterns {
		fmt.Fprintf(h, "pattern=%s\n", p)
	}
	for _, m := range g.Motifs {
		fmt.Fprintf(h, "motif=%s:%s\n", m.Name(), motifDigest(m))
	}
	for _, l := range g.Loads {
		fmt.Fprintf(h, "load=%v\n", l)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
