package simnet

import "fmt"

// Multi-tenant runs: a Workload's TenantConfig partitions the
// endpoints among co-scheduled jobs ("tenants") and gives each its own
// offered load. The engine stays a single event simulation — tenants
// share ports, links and routing exactly like ranks of one job — but
// injection pacing becomes per-tenant (each sender draws inter-arrival
// gaps from its tenant's load instead of the run's) and delivery
// statistics are additionally folded per tenant, so inter-job
// interference (a victim tenant's tail latency under an aggressor's
// load) is directly observable. A message belongs to its source
// endpoint's tenant. traffic.Assignment builds tenant workloads from
// placement policies; see DESIGN.md §12.

// TenantConfig assigns endpoints to tenants. It is read-only once
// handed to RunLoad, so shards share it.
type TenantConfig struct {
	// OfEP maps each endpoint to its tenant id, or -1 for an endpoint
	// no tenant owns. Every sender of the Workload must be owned.
	// Length must equal Endpoints().
	OfEP []int32
	// Load is each tenant's offered load as a fraction of endpoint
	// injection bandwidth, in [0, 1]; 0 runs the tenant at the run's
	// load. Entries index tenant ids.
	Load []float64
}

// TenantStats is the per-tenant slice of a run's statistics:
// the same Offered/Delivered/Dropped conservation identity and
// latency digest as the global Stats, restricted to messages whose
// source endpoint belongs to the tenant.
type TenantStats struct {
	Offered     int
	Delivered   int
	Dropped     int // Offered - Delivered
	MeanLatency float64
	P99Latency  int64
}

// check panics on a table that does not fit an instance of nep
// endpoints: RunLoad's callers build tables from a validated
// placement, so a malformed one is a caller's bug, like unsorted
// senders.
func (tc *TenantConfig) check(nep int) {
	if len(tc.OfEP) != nep {
		panic(fmt.Sprintf("simnet: TenantConfig.OfEP length %d, want %d", len(tc.OfEP), nep))
	}
	for ep, t := range tc.OfEP {
		if t < -1 || int(t) >= len(tc.Load) {
			panic(fmt.Sprintf("simnet: TenantConfig.OfEP[%d] = %d, want -1..%d", ep, t, len(tc.Load)-1))
		}
	}
	for t, l := range tc.Load {
		if !(l >= 0 && l <= 1) { // NaN fails too
			panic(fmt.Sprintf("simnet: tenant %d load %v out of [0,1]", t, l))
		}
	}
}

// gapOf returns the mean injection gap for one sender: its tenant's
// load when the workload has tenants and the tenant's load is set,
// the run's load otherwise.
func (nw *Network) gapOf(ep int32) float64 {
	if tc := nw.work.Tenants; tc != nil {
		if l := tc.Load[tc.OfEP[ep]]; l > 0 {
			return float64(PacketFlits) / l
		}
	}
	return nw.meanGap
}

// resetTenants (re)initializes the per-tenant accumulators of a run
// view — the Network in reset, each shard view in begin, and the
// Network again before fold merges its shards.
func (nw *Network) resetTenants() {
	if nw.work.Tenants == nil {
		nw.tenStats = nil
		nw.tenLat = nil
		return
	}
	k := len(nw.work.Tenants.Load)
	nw.tenStats = make([]TenantStats, k)
	if len(nw.tenLat) != k {
		nw.tenLat = make([]latDigest, k)
	}
	for t := range nw.tenLat {
		nw.tenLat[t].reset()
	}
}

// tenOffered charges one offered message to the source endpoint's
// tenant.
func (nw *Network) tenOffered(srcEP int32) {
	if tc := nw.work.Tenants; tc != nil {
		nw.tenStats[tc.OfEP[srcEP]].Offered++
	}
}

// tenDelivered charges one delivery and its end-to-end latency to the
// source endpoint's tenant.
func (nw *Network) tenDelivered(srcEP int32, lat int64) {
	if tc := nw.work.Tenants; tc != nil {
		t := tc.OfEP[srcEP]
		nw.tenStats[t].Delivered++
		nw.tenLat[t].add(lat)
	}
}

// finalizeTenants closes out a run's tenant accounting from the
// Network's accumulators (its own shard's, or the fold of several):
// the Dropped identity and the digest-derived mean/P99. Returns nil on
// a single-tenant run so Stats.Tenants stays omitted from JSON.
func (nw *Network) finalizeTenants() []TenantStats {
	if nw.work.Tenants == nil {
		return nil
	}
	out := make([]TenantStats, len(nw.tenStats))
	copy(out, nw.tenStats)
	for t := range out {
		out[t].Dropped = out[t].Offered - out[t].Delivered
		if d := &nw.tenLat[t]; d.count > 0 {
			out[t].MeanLatency = d.mean()
			out[t].P99Latency = d.quantile(0.99)
		}
	}
	return out
}

// memoryBytesTenants is the tenant accumulators' contribution to the
// run's working set (0 on single-tenant runs, so their accounting is
// untouched).
func (nw *Network) memoryBytesTenants() int64 {
	var b int64
	for t := range nw.tenLat {
		b += nw.tenLat[t].memoryBytes()
	}
	b += int64(len(nw.tenStats)) * 40
	return b
}
