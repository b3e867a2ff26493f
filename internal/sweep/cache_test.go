package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/internal/version"
)

// memCache is an in-memory CellCache that counts traffic: a second
// pass with Misses == 0 proves the run scheduled zero simulations
// (every cell that reaches the engine was first a recorded miss).
type memCache struct {
	mu     sync.Mutex
	m      map[string][]byte
	hits   int
	misses int
	puts   int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return b, ok
}

func (c *memCache) Put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), payload...)
	c.puts++
}

// cacheGrid is a fault grid plus a churn schedule axis — every group
// kind the cache must handle.
func cacheGrid(t testing.TB) *Grid {
	g := faultGrid(t)
	g.Instances = g.Instances[:1]
	g.Schedules = []ScheduleAxis{
		{Name: "churn", Kind: fault.Links, Fraction: 0.05, Period: 400, Outage: 150, Repeats: 2, Trials: 2},
	}
	return g
}

// TestWarmCacheZeroSimulations: a second run of an identical grid
// against a warmed cache answers every cell from the store — no
// misses, no new puts, byte-identical results.
func TestWarmCacheZeroSimulations(t *testing.T) {
	cache := newMemCache()
	cold, err := cacheGrid(t).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	n := len(cold)
	if n == 0 {
		t.Fatal("empty grid")
	}
	if cache.misses != n || cache.puts != n {
		t.Fatalf("cold pass: %d misses, %d puts, want %d each", cache.misses, cache.puts, n)
	}
	cache.misses, cache.puts, cache.hits = 0, 0, 0

	warm, err := cacheGrid(t).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 0 || cache.puts != 0 {
		t.Fatalf("warm pass ran simulations: %d misses, %d puts", cache.misses, cache.puts)
	}
	if cache.hits != n {
		t.Fatalf("warm pass: %d hits, want %d", cache.hits, n)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm results diverge from cold run")
	}

	// The baseline without a cache must be untouched by the feature.
	plain, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, plain) {
		t.Error("cache-enabled run diverges from the plain run")
	}
}

// TestPartialCacheInterleavesInOrder warms only scattered cells and
// checks the mixed hit/miss stream still arrives in cell order with
// the same values.
func TestPartialCacheInterleavesInOrder(t *testing.T) {
	full := newMemCache()
	cold, err := cacheGrid(t).Collect(context.Background(), Options{Cache: full})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cacheGrid(t).ContentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	partial := newMemCache()
	for i := 0; i < len(keys); i += 2 { // every other cell warmed
		if b, ok := full.m[keys[i]]; ok {
			partial.m[keys[i]] = b
		}
	}
	mixed, err := cacheGrid(t).Collect(context.Background(), Options{Cache: partial})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, mixed) {
		t.Error("partially warmed run diverges")
	}
	for i, res := range mixed {
		if res.Index != i {
			t.Fatalf("position %d delivered index %d", i, res.Index)
		}
	}
}

// fixedGrid is cacheGrid with scheduleAxes' schedule axes: the same
// churn axis plus "rewire", a fixed schedule that cuts four links at
// cycle 200 and restores them at 700. edit, when set, changes the
// fixed schedule before the grid is returned.
func fixedGrid(t testing.TB, edit func(s fault.Schedule)) *Grid {
	g := cacheGrid(t)
	g.Schedules = scheduleAxes(t, g)
	if edit != nil {
		edit(g.Schedules[1].Schedule)
	}
	return g
}

// TestCacheFixedSchedule: a grid with a fixed-schedule axis is content
// addressed like any other — a second run through the same cache
// simulates nothing and reproduces the first run and its fingerprint.
func TestCacheFixedSchedule(t *testing.T) {
	cache := newMemCache()
	fp, err := fixedGrid(t, nil).Fingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := fixedGrid(t, nil).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0
	for _, res := range cold {
		if res.Err != nil {
			t.Fatalf("cell %d: %v", res.Index, res.Err)
		}
		if res.Schedule == "rewire" {
			fixed++
		}
	}
	if fixed == 0 {
		t.Fatal("grid has no fixed-schedule cells")
	}
	cache.misses = 0
	warm, err := fixedGrid(t, nil).Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.misses != 0 {
		t.Errorf("warm pass missed %d times", cache.misses)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm replay diverges from the cold run")
	}
	if again, err := fixedGrid(t, nil).Fingerprint(0); err != nil || again != fp {
		t.Errorf("fingerprint %s (%v) after the runs, want %s", again, err, fp)
	}
}

// TestFixedScheduleKeys: the content keys and the fingerprint commit
// to a fixed schedule change by change. Moving one change's cycle or
// one cut edge moves the keys of that axis's cells and the fingerprint,
// and leaves every other cell's key alone.
func TestFixedScheduleKeys(t *testing.T) {
	g := fixedGrid(t, nil)
	cells := g.Cells()
	base, err := g.ContentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	other := g.Instances[0].Inst.G.Edges()[4]
	for name, edit := range map[string]func(fault.Schedule){
		"cycle": func(s fault.Schedule) { s[0].Cycle++ },
		"cut edge": func(s fault.Schedule) {
			s[0].Cut = append([][2]int32{other}, s[0].Cut[1:]...)
		},
	} {
		mod := fixedGrid(t, edit)
		keys, err := mod.ContentKeys(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, c := range cells {
			if moved := keys[i] != base[i]; moved != (c.Schedule == "rewire") {
				t.Errorf("%s: cell %d (schedule %q) key moved = %v", name, i, c.Schedule, moved)
			}
		}
		if mfp, err := mod.Fingerprint(0); err != nil || mfp == fp {
			t.Errorf("%s: fingerprint %s (%v) did not move", name, mfp, err)
		}
	}
}

// TestFixedScheduleValidated: a fixed schedule that names a non-edge
// or a negative cycle fails Run, ContentKeys and Fingerprint before
// any cell runs, and the error names the axis.
func TestFixedScheduleValidated(t *testing.T) {
	gr := cacheGrid(t).Instances[0].Inst.G
	nonEdge := [2]int32{0, 1}
	for gr.HasEdge(0, int(nonEdge[1])) {
		nonEdge[1]++
	}
	for name, edit := range map[string]func(fault.Schedule){
		"non-edge":       func(s fault.Schedule) { s[0].Cut = [][2]int32{nonEdge} },
		"negative cycle": func(s fault.Schedule) { s[0].Cycle = -1 },
	} {
		g := fixedGrid(t, edit)
		emitted := 0
		errs := map[string]error{
			"Run": g.Run(context.Background(), Options{}, func(Result) error { emitted++; return nil }),
		}
		_, errs["ContentKeys"] = g.ContentKeys(0)
		_, errs["Fingerprint"] = g.Fingerprint(0)
		for call, err := range errs {
			if err == nil || !strings.Contains(err.Error(), `"rewire"`) {
				t.Errorf("%s: %s error %v, want one naming axis \"rewire\"", name, call, err)
			}
		}
		if emitted != 0 {
			t.Errorf("%s: %d cells ran before the error", name, emitted)
		}
	}
}

// TestEmptyFixedSchedule: an empty non-nil Schedule is a fixed
// schedule that changes nothing — a static leg, as fault.Rewiring
// returns for identical configurations. It validates without any churn
// parameter, runs every cell without loss, and keys apart from a fixed
// schedule that does change the network.
func TestEmptyFixedSchedule(t *testing.T) {
	g := fixedGrid(t, nil)
	g.Schedules = append(g.Schedules, ScheduleAxis{Name: "static", Schedule: fault.Schedule{}})
	res, err := g.Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := g.ContentKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	byAxis := map[string]string{}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("cell %d (%q): %v", i, r.Schedule, r.Err)
		}
		if r.Schedule == "static" && (r.Stats.Dropped != 0 || r.Stats.SeveredInFlight != 0) {
			t.Errorf("static cell %d dropped %d, severed %d", i, r.Stats.Dropped, r.Stats.SeveredInFlight)
		}
		byAxis[r.Schedule] = keys[i]
	}
	if byAxis["static"] == "" {
		t.Fatal("grid has no static-leg cells")
	}
	if byAxis["static"] == byAxis["rewire"] {
		t.Error("empty and nonempty fixed schedules share a content key")
	}
}

// TestRunRangeMatchesRun: any partition of [0, n) into RunRange calls
// reproduces the full run's results cell for cell.
func TestRunRangeMatchesRun(t *testing.T) {
	full, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(full)
	for _, step := range []int{1, 2, 3, n} {
		var parts []Result
		for lo := 0; lo < n; lo += step {
			hi := lo + step
			if hi > n {
				hi = n
			}
			err := cacheGrid(t).RunRange(context.Background(), Options{}, lo, hi, func(res Result) error {
				parts = append(parts, res)
				return nil
			})
			if err != nil {
				t.Fatalf("range [%d,%d): %v", lo, hi, err)
			}
		}
		if !reflect.DeepEqual(full, parts) {
			t.Errorf("step %d: concatenated ranges diverge from the full run", step)
		}
	}
	// hi < 0 means the end of the grid.
	var tail []Result
	if err := cacheGrid(t).RunRange(context.Background(), Options{}, n-2, -1, func(res Result) error {
		tail = append(tail, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full[n-2:], tail) {
		t.Error("open-ended range diverges")
	}
}

// TestWarmRunRangeKeysOnlyItsRange: a cached RunRange computes the
// content keys of its own cells and no others — a distributed worker
// claiming a range of a large grid must not re-key the whole grid — and
// a warm range emits exactly the rows of a full warm Collect there.
func TestWarmRunRangeKeysOnlyItsRange(t *testing.T) {
	var keyed []int
	counting := func() *Grid {
		g := fixedGrid(t, nil)
		g.Keys.CellKey = func(c *Cell) string {
			keyed = append(keyed, c.Index)
			return Keys{}.cellKey(c)
		}
		return g
	}
	cache := newMemCache()
	if _, err := counting().Collect(context.Background(), Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	full, err := counting().Collect(context.Background(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	n := len(full)
	for _, r := range [][2]int{{0, 1}, {1, 4}, {n - 3, n}, {2, 2}} {
		lo, hi := r[0], r[1]
		keyed, cache.misses = nil, 0
		rows := []Result{}
		if err := counting().RunRange(context.Background(), Options{Cache: cache}, lo, hi, func(res Result) error {
			rows = append(rows, res)
			return nil
		}); err != nil {
			t.Fatalf("range [%d,%d): %v", lo, hi, err)
		}
		for _, i := range keyed {
			if i < lo || i >= hi {
				t.Errorf("range [%d,%d) keyed cell %d", lo, hi, i)
			}
		}
		if len(keyed) != hi-lo || cache.misses != 0 {
			t.Errorf("range [%d,%d): %d cells keyed, %d misses, want %d and 0", lo, hi, len(keyed), cache.misses, hi-lo)
		}
		if !reflect.DeepEqual(rows, full[lo:hi]) {
			t.Errorf("range [%d,%d): warm rows diverge from the full warm Collect", lo, hi)
		}
	}
}

// TestPayloadRoundTrip: encode/decode reproduces every statistic
// exactly, and failed cells refuse to encode.
func TestPayloadRoundTrip(t *testing.T) {
	res, err := cacheGrid(t).Collect(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		b, err := EncodePayload(r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePayload(b)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Stats.Equal(r.Stats) || p.Saturation != r.Saturation {
			t.Fatalf("cell %d: payload round trip lost data", r.Index)
		}
	}
	bad := res[0]
	bad.Err = fmt.Errorf("boom")
	if _, err := EncodePayload(bad); err == nil {
		t.Fatal("encoded a failed cell")
	}
}

// fakeMotif lets tests pin motifs whose display names collide.
type fakeMotif struct {
	name   string
	rounds [][][2]int32
}

func (f fakeMotif) Name() string         { return f.name }
func (f fakeMotif) Rounds() [][][2]int32 { return f.rounds }

// TestContentKeyDiscrimination: everything a cell's measurement
// depends on must move its content key.
func TestContentKeyDiscrimination(t *testing.T) {
	keysOf := func(g *Grid, workers int) []string {
		ks, err := g.ContentKeys(workers)
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}

	base := keysOf(cacheGrid(t), 0)

	// Stability: an identical grid reproduces identical keys.
	if !reflect.DeepEqual(base, keysOf(cacheGrid(t), 0)) {
		t.Error("identical grids produced different keys")
	}

	// Workers is a speed knob: it never enters a key.
	for _, w := range []int{1, 2, 8} {
		if !reflect.DeepEqual(base, keysOf(cacheGrid(t), w)) {
			t.Errorf("shard count leaked into keys (Workers=0 vs %d must agree)", w)
		}
	}

	// FaultAxis.RegionSize is absent from the default cell identity
	// string but changes the sampled plan — the content key must see it.
	rs := cacheGrid(t)
	rs.Faults[1].RegionSize = 4
	if reflect.DeepEqual(base, keysOf(rs, 0)) {
		t.Error("RegionSize did not move the fault cells' keys")
	}

	// The code version stamp invalidates everything.
	old := version.Stamp()
	version.Override(old + "+next")
	stamped := keysOf(cacheGrid(t), 0)
	version.Override(old)
	for i := range base {
		if base[i] == stamped[i] {
			t.Fatalf("cell %d key survived a version change", i)
		}
	}

	// Motifs hash their rounds, not their names: a quick and a full
	// variant sharing a display name must not share keys.
	motifGrid := func(m traffic.Motif) *Grid {
		return &Grid{
			Instances: testInstances(t)[:1],
			Policies:  []routing.Policy{routing.Minimal},
			Motifs:    []traffic.Motif{m},
			Measure:   MeasureMotif,
			Ranks:     64,
			Seed:      7,
		}
	}
	quick := keysOf(motifGrid(fakeMotif{name: "halo", rounds: [][][2]int32{{{0, 1}}}}), 0)
	fullM := keysOf(motifGrid(fakeMotif{name: "halo", rounds: [][][2]int32{{{0, 1}}, {{1, 0}}}}), 0)
	if quick[0] == fullM[0] {
		t.Error("motifs with equal names but different rounds share a key")
	}

	// Overlapping grids share the keys of their common cells: dropping
	// the schedule axis must not move the fault cells' keys.
	noSched := cacheGrid(t)
	noSched.Schedules = nil
	sub := keysOf(noSched, 0)
	if !reflect.DeepEqual(base[:len(sub)], sub) {
		t.Error("removing an unrelated axis moved the remaining cells' keys")
	}
}

// TestContentKeysPinned pins the exact content-key bytes of one
// saturation grid and one layout grid under a fixed version stamp. The
// key headers spell out the saturation criterion and the wire model's
// cycles-per-ns; printing them any differently would orphan every
// cached cell of such grids.
func TestContentKeysPinned(t *testing.T) {
	old := version.Stamp()
	version.Override("pinned")
	defer version.Override(old)
	sat := &Grid{Instances: testInstances(t)[:1], Measure: MeasureSaturation, MsgsPerRank: 4, Seed: 7}
	lay := loadGrid(t)
	lay.Instances = lay.Instances[:1]
	lay.Layout = Layout{Mode: "sequential", Seed: 11}
	for _, c := range []struct {
		name string
		g    *Grid
		want string
	}{
		{"saturation", sat, "b5c9e6f6a7a0ad452be2e8af1bf0407d9ba7def0dd50c79aff27af57d012c667"},
		{"layout", lay, "4170340468252294575998b5cdb928e2326df3a75c07d7eabee31c823a36bc6a"},
	} {
		keys, err := c.g.ContentKeys(0)
		if err != nil {
			t.Fatal(err)
		}
		if keys[0] != c.want {
			t.Errorf("%s grid: first content key %s, want %s", c.name, keys[0], c.want)
		}
	}
}

// TestContentKeySetsPinned pins, under a fixed version stamp, a digest
// over every content key of a grid and the grid's Fingerprint, for
// grids that between them reach every branch of the key pre-image:
// shifting traffic, motifs, saturation, each fault kind with a region
// size, a sampled and a fixed schedule axis, tenants, a layout and an
// instance with a dead set. A change in how any field is printed
// orphans every cached cell of such grids, so the values were recorded
// once and must never be regenerated.
func TestContentKeySetsPinned(t *testing.T) {
	old := version.Stamp()
	version.Override("pinned")
	defer version.Override(old)

	shift := scheduleGrid(t)
	shift.Loads = []float64{0.2, 1.0 / 3}

	motif := &Grid{
		Instances: testInstances(t),
		Policies:  []routing.Policy{routing.Minimal, routing.Valiant},
		Motifs: []traffic.Motif{
			fakeMotif{name: "halo", rounds: [][][2]int32{{{0, 1}, {1, 0}}, {{2, 3}}}},
			fakeMotif{name: "sweep", rounds: [][][2]int32{{{5, 9}}}},
		},
		Measure: MeasureMotif,
		Ranks:   16,
		Seed:    3,
	}

	sat := &Grid{Instances: testInstances(t), Measure: MeasureSaturation, MsgsPerRank: 4, Seed: 7}
	sat.Faults = []FaultAxis{{Kind: fault.Routers, Fraction: 0.1}}

	faults := loadGrid(t)
	faults.Loads = []float64{0.25}
	faults.Faults = []FaultAxis{
		{Kind: fault.Links, Fraction: 0.1, RegionSize: 3, Trials: 2},
		{Kind: fault.Routers, Fraction: 0.05, RegionSize: 5},
		{Kind: fault.Regions, Fraction: 0.2, RegionSize: 4, Trials: 2},
	}

	sched := scheduleGrid(t)
	sched.ShiftPeriod, sched.ShiftPatterns = 0, nil
	sched.Schedules = scheduleAxes(t, sched)
	sched.Schedules[0].RegionSize = 6
	sched.Schedules = append(sched.Schedules, ScheduleAxis{
		Name: "regions", Kind: fault.Regions, Fraction: 0.1, RegionSize: 4,
		Period: 300, Outage: 100, Repeats: 1,
	})

	tenants := loadGrid(t)
	tenants.Tenants = traffic.Tenants{
		Specs: []traffic.TenantSpec{
			{Name: "victim", Pattern: traffic.Random, Ranks: 8, Load: 0.05},
			{Name: "aggressor", Pattern: traffic.Transpose, Ranks: 16},
		},
		Policy: traffic.PlaceRandom,
		Seed:   5,
	}

	lay := loadGrid(t)
	lay.Layout = Layout{Mode: "sequential", Seed: 11}

	_, dead := degradedPair(t)

	for _, c := range []struct {
		name     string
		g        *Grid
		keys, fp string
	}{
		{"shift", shift,
			"8c498f59475038aed6e0345d125539910aecc376bd20f893c23147d30c8bc1d3",
			"07e91765d52b7bd7116fa16684f1a6953de76c951d2111f90eaeb43ecd60f161"},
		{"motif", motif,
			"11c86d0a5b7da20605075c9f45d3aaefcec9d3c85012248862cefd9bdfaf3921",
			"db5998a8038581f45e5b7226c81bc333cc935a083fc107a948be8979f2d0965b"},
		{"saturation", sat,
			"0183efbb24ea75d0dc9e6ed8b79ed7d4a7b786d14e21f544dcaf7bee48abe356",
			"b49a12856da0f6b480b083761c6de8e6e7364d952fc64295ed7d5f4f844109e8"},
		{"faults", faults,
			"b013c9064f4a78e97e089cea9d7c3a6008e6d74b7f0e4cdf8664a008b188b25f",
			"e0a453e7fdd6135c22a96517eb5aade7d6fcf2a6b9ab10c3ecb397870d3984c3"},
		{"schedules", sched,
			"7361f18cffe4dc26f2f0fd0306ed19544713aef3fda5fc71a41bb6732dbf4f35",
			"fa43ebcceb7155e5bbaa05f7074eb8156bd32ec80fb1af49911faac12879f40b"},
		{"tenants", tenants,
			"18b932679e2097df21579bc30ae5794386c999668af6dc7530aeffa1f0c1d8f2",
			"26ab354686a60470fe9db81bf6390230f5f08d6909bdddf66a76dfd11e7a8416"},
		{"layout", lay,
			"15cf391e98ba3941f59691df60bc4d927352ca0175ae653ebede8a2c6dc34f91",
			"f67bd8263f9aa7298589ebb589774ab4e029dd396ae32510ab110833b773430c"},
		{"dead", dead,
			"331b641b1b44bc500f46f3f0e760111c262d16ee02102ec8e44280da050b846b",
			"77d8a0bbe154681c852de7f637eab21e024b7af9a7aa22e5486737c9ac181fbf"},
	} {
		keys, err := c.g.ContentKeys(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:]); got != c.keys {
			t.Errorf("%s grid: digest of %d content keys %s, want %s", c.name, len(keys), got, c.keys)
		}
		fp, err := c.g.Fingerprint(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp != c.fp {
			t.Errorf("%s grid: fingerprint %s, want %s", c.name, fp, c.fp)
		}
	}
}

// TestFingerprint pins the full-grid identity: stable for identical
// grids, moved by any axis change, blind to the shard count.
func TestFingerprint(t *testing.T) {
	fp := func(g *Grid, workers int) string {
		s, err := g.Fingerprint(workers)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := fp(cacheGrid(t), 0), fp(cacheGrid(t), 0)
	if a != b {
		t.Error("identical grids fingerprint differently")
	}
	if fp(cacheGrid(t), 0) != fp(cacheGrid(t), 2) {
		t.Error("shard count leaked into the fingerprint")
	}
	mod := cacheGrid(t)
	mod.Schedules = nil
	if fp(mod, 0) == a {
		t.Error("axis removal did not move the fingerprint")
	}
	mod2 := cacheGrid(t)
	mod2.Seed++
	if fp(mod2, 0) == a {
		t.Error("seed change did not move the fingerprint")
	}
}

// fuzz instances are built once — topology construction dominates the
// fuzz loop otherwise.
var fuzzInstOnce = sync.OnceValues(func() ([]Instance, error) {
	lps, err := topo.LPS(11, 7)
	if err != nil {
		return nil, err
	}
	return []Instance{{Name: lps.Name, Inst: lps, Concentration: 2}}, nil
})

// fuzzSchedule decodes bits into a small fixed schedule over edges:
// one to three changes at nondecreasing cycles, each cutting or
// restoring one edge.
func fuzzSchedule(edges [][2]int32, bits uint64) fault.Schedule {
	take := func(n int) int {
		v := int(bits % uint64(n))
		bits /= uint64(n)
		return v
	}
	s := make(fault.Schedule, take(3)+1)
	var cycle int64
	for i := range s {
		cycle += int64(take(512))
		e := [][2]int32{edges[take(len(edges))]}
		if s[i].Cycle = cycle; take(2) == 0 {
			s[i].Cut = e
		} else {
			s[i].Restore = e
		}
	}
	return s
}

// FuzzCellKeyInjective generates grids across the axis space and
// checks that both identity schemes discriminate: the default cell
// key strings are pairwise distinct (they feed per-cell seed
// derivation — a collision would correlate cells), and so are the
// content-addressed keys (a collision would alias cache entries).
// Every grid carries a fixed-schedule axis decoded from fixedA; the
// same grid with fixedB's schedule on that axis must give its cells
// keys no cell of the first grid has whenever the schedules differ,
// and must leave every other cell's key unchanged.
func FuzzCellKeyInjective(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(2), uint8(2), uint8(2), uint8(1), uint64(0), uint64(1))
	f.Add(int64(42), uint8(1), uint8(3), uint8(1), uint8(0), uint8(0), uint8(0), uint64(12345), uint64(12345))
	f.Add(int64(-7), uint8(3), uint8(1), uint8(3), uint8(1), uint8(2), uint8(2), uint64(1<<40), uint64(1<<40+3))
	f.Fuzz(func(t *testing.T, seed int64, nPol, nPat, nLoad, nFault, nTrial, nSched uint8, fixedA, fixedB uint64) {
		insts, err := fuzzInstOnce()
		if err != nil {
			t.Skip(err)
		}
		allPols := []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL}
		allPats := []traffic.Pattern{traffic.Random, traffic.Transpose, traffic.BitShuffle}
		allKinds := []fault.Kind{fault.Links, fault.Routers, fault.Regions}
		g := &Grid{
			Instances: insts,
			Policies:  allPols[:int(nPol)%3+1],
			Patterns:  allPats[:int(nPat)%3+1],
			Measure:   MeasureLoad,
			Ranks:     32,
			Seed:      seed,
		}
		for i := 0; i <= int(nLoad)%3; i++ {
			g.Loads = append(g.Loads, 0.1+0.2*float64(i))
		}
		// Distinct (kind, fraction) pairs per axis entry: the default
		// cell identity does not see RegionSize or Trials, so colliding
		// pairs would collide by design (the content keys still must
		// not — they carry the plan parameters).
		for i := 0; i < int(nFault)%3; i++ {
			g.Faults = append(g.Faults, FaultAxis{
				Kind:     allKinds[i],
				Fraction: 0.05 + 0.05*float64(i),
				Trials:   int(nTrial)%2 + 1,
			})
		}
		for i := 0; i < int(nSched)%3; i++ {
			g.Schedules = append(g.Schedules, ScheduleAxis{
				Name: fmt.Sprintf("churn%d", i),
				Kind: allKinds[i], Fraction: 0.05, Period: 400, Outage: 100,
				Repeats: 1, Trials: int(nTrial)%2 + 1,
			})
		}
		edges := insts[0].Inst.G.Edges()
		g.Schedules = append(g.Schedules, ScheduleAxis{
			Name: "fixed", Schedule: fuzzSchedule(edges, fixedA), Trials: int(nTrial)%2 + 1,
		})
		cells := g.Cells()
		seen := make(map[string]int, len(cells))
		for i := range cells {
			k := g.Keys.cellKey(&cells[i])
			if j, dup := seen[k]; dup {
				t.Fatalf("cell key collision: cells %d and %d both map to %q", j, i, k)
			}
			seen[k] = i
		}
		keys, err := g.ContentKeys(int(nPol) % 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(cells) {
			t.Fatalf("%d content keys for %d cells", len(keys), len(cells))
		}
		ck := make(map[string]int, len(keys))
		for i, k := range keys {
			if j, dup := ck[k]; dup {
				t.Fatalf("content key collision: cells %d and %d", j, i)
			}
			ck[k] = i
		}

		g2 := *g
		g2.Schedules = slices.Clone(g.Schedules)
		g2.Schedules[len(g2.Schedules)-1].Schedule = fuzzSchedule(edges, fixedB)
		same := reflect.DeepEqual(g.Schedules, g2.Schedules)
		keys2, err := g2.ContentKeys(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			_, seen := ck[keys2[i]]
			switch {
			case c.Schedule != "fixed" || same:
				if keys2[i] != keys[i] {
					t.Fatalf("cell %d (schedule %q) key moved with an unchanged axis", i, c.Schedule)
				}
			case seen:
				t.Fatalf("distinct fixed schedules share a content key at cell %d", i)
			}
		}
	})
}

// TestCacheKeysSoundAcrossWorkers: content keys leave out Workers, so
// a cell's result must not depend on it. Every cell here delivers more
// than 8,192 messages — past the point where a sampled latency digest
// once made P99 depend on the shard count — and must encode to the
// same payload for Workers 0, 1, 2 and 4 (MemoryBytes aside: it counts
// the shards' real memory). A cache filled at one worker count then
// serves every other with zero misses.
func TestCacheKeysSoundAcrossWorkers(t *testing.T) {
	grid := func() *Grid {
		lps := testInstances(t)[0]
		lps.Concentration = 4
		return &Grid{
			Instances:   []Instance{lps},
			Policies:    []routing.Policy{routing.Minimal, routing.UGALL},
			Patterns:    []traffic.Pattern{traffic.Random},
			Loads:       []float64{0.5},
			Measure:     MeasureLoad,
			Ranks:       672,
			MsgsPerRank: 64,
			Seed:        11,
		}
	}
	payloads := func(rows []Result) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
			if r.Stats.Delivered <= 8192 {
				t.Fatalf("cell %d delivered %d messages, want > 8192", i, r.Stats.Delivered)
			}
			r.Stats.MemoryBytes = 0
			b, err := EncodePayload(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	run := func(workers int, cache CellCache) []Result {
		rows, err := grid().Collect(context.Background(), Options{Parallel: 1, Workers: workers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := payloads(run(0, nil))
	for _, w := range []int{1, 2, 4} {
		if got := payloads(run(w, nil)); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d payloads differ from Workers=0:\n%v\n%v", w, got, want)
		}
	}

	cache := newMemCache()
	filled := run(2, cache)
	for _, w := range []int{0, 1, 4} {
		cache.misses = 0
		served := run(w, cache)
		if cache.misses != 0 {
			t.Errorf("Workers=%d missed a cache filled at Workers=2 %d times", w, cache.misses)
		}
		if !reflect.DeepEqual(served, filled) {
			t.Errorf("Workers=%d served rows differ from the filling run", w)
		}
	}
}
