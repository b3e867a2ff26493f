package simnet

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topo"
)

// runAt runs the class-1 instance with the given shard count.
func runAt(tb testing.TB, workers int, policy routing.Policy, load float64, msgs int) Stats {
	tb.Helper()
	nw := class1StreamNet(tb)
	nw.SetPolicy(policy)
	nw.SetWorkers(workers)
	return nw.RunLoad(uniformPattern(nw.Endpoints()), load, msgs)
}

// At contended loads, where path choice feeds back into queueing, one
// and four shards still conserve the same messages at the same
// latency. (TestWorkerCountInvariance asserts full equality.)
func TestParallelConservationHeavyLoad(t *testing.T) {
	for _, pol := range []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL} {
		serial := runAt(t, 1, pol, streamGateLoad, streamGateMsgs)
		par := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		if par.Offered != serial.Offered || par.Delivered != serial.Delivered ||
			par.Dropped != serial.Dropped || par.PatternSkips != serial.PatternSkips {
			t.Errorf("policy %v: conservation broken: parallel %d/%d/%d/%d, serial %d/%d/%d/%d",
				pol, par.Offered, par.Delivered, par.Dropped, par.PatternSkips,
				serial.Offered, serial.Delivered, serial.Dropped, serial.PatternSkips)
		}
		if par.Delivered > 0 {
			lo, hi := serial.MeanLatency*0.5, serial.MeanLatency*2
			if par.MeanLatency < lo || par.MeanLatency > hi {
				t.Errorf("policy %v: parallel mean latency %v implausibly far from serial %v",
					pol, par.MeanLatency, serial.MeanLatency)
			}
		}
	}
}

// Fixed (seed, Workers) must reproduce bit-identical statistics.
func TestParallelDeterministic(t *testing.T) {
	for _, pol := range []routing.Policy{routing.Minimal, routing.UGALL} {
		a := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		b := runAt(t, 4, pol, streamGateLoad, streamGateMsgs)
		if !a.Equal(b) {
			t.Errorf("policy %v: repeated parallel runs diverged:\n%+v\n%+v", pol, a, b)
		}
	}
}

// TestScheduleParallelSpeedupGate is the scheduled acceptance gate:
// the unified engine must keep the >=1.5x 4-worker speedup on a
// class-1 run whose topology churns mid-run (the schedule's window
// clipping and barrier repairs must not eat the PDES win). Timing
// gates are noise-sensitive, so it arms only under
// SPECTRALFLY_BENCH_GATE=1 and needs 4 usable cores.
func TestScheduleParallelSpeedupGate(t *testing.T) {
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need 4 cores, have %d", n)
	}
	inst := topo.MustLPS(11, 7)
	sched, err := fault.ChurnSpec{
		Kind: fault.Links, Fraction: 0.02,
		Period: 3000, Outage: 1500, Repeats: 3, Seed: 7,
	}.Schedule(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *Network {
		tab := routing.NewTable(inst.G)
		nw, err := New(Config{
			Topo: inst.G, Concentration: 4, Seed: 11,
			Schedule: sched, Workers: workers,
		}, tab)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	serialNet, parNet := mk(0), mk(4)
	patS := uniformPattern(serialNet.Endpoints())
	patP := uniformPattern(parNet.Endpoints())
	parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs) // warm shard map + arenas
	const reps = 3
	minS, minP := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		serialNet.RunLoad(patS, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minS {
			minS = d
		}
		start = time.Now()
		parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minP {
			minP = d
		}
	}
	speedup := float64(minS) / float64(minP)
	t.Logf("scheduled serial %v, 4 workers %v: %.2fx", minS, minP, speedup)
	if speedup < 1.5 {
		t.Errorf("scheduled 4-worker speedup %.2fx below the 1.5x gate (serial %v, parallel %v)",
			speedup, minS, minP)
	}
}

// Dead routers drop messages by static reachability (NIC drops and
// unreachable-next-hop drops): one and four shards deliver and drop
// the same messages on damaged topologies.
func TestParallelDamagedConservation(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	tab := routing.NewTable(inst.G)
	dead := make([]bool, inst.G.N())
	for _, r := range []int{3, 17, 42, 90, 140} {
		dead[r] = true
	}
	for _, pol := range []routing.Policy{routing.Minimal, routing.Valiant} {
		run := func(workers int) Stats {
			nw, err := New(Config{
				Topo: inst.G, Concentration: 2, Seed: 11,
				DeadRouters: dead, Policy: pol, Workers: workers,
			}, tab)
			if err != nil {
				t.Fatal(err)
			}
			return nw.RunLoad(uniformPattern(nw.Endpoints()), 0.2, 16)
		}
		serial, par := run(1), run(4)
		if par.Offered != serial.Offered || par.Delivered != serial.Delivered || par.Dropped != serial.Dropped {
			t.Errorf("policy %v: damaged conservation broken: parallel %d/%d/%d, serial %d/%d/%d",
				pol, par.Offered, par.Delivered, par.Dropped,
				serial.Offered, serial.Delivered, serial.Dropped)
		}
		if serial.Dropped == 0 {
			t.Errorf("policy %v: damage produced no drops; the case tests nothing", pol)
		}
	}
}

const speedupGateMsgs = 256

// TestRunLoadParallelSpeedupGate is the acceptance gate of this
// change: >=1.5x at 4 workers on the class-1 instance. Timing gates
// are noise-sensitive, so it arms only under SPECTRALFLY_BENCH_GATE=1
// (CI runs it on a dedicated step), and needs 4 usable cores.
func TestRunLoadParallelSpeedupGate(t *testing.T) {
	if os.Getenv("SPECTRALFLY_BENCH_GATE") == "" {
		t.Skip("timing gate armed only with SPECTRALFLY_BENCH_GATE=1")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need 4 cores, have %d", n)
	}
	serialNet := class1StreamNet(t)
	parNet := class1StreamNet(t)
	parNet.SetWorkers(4)
	patS := uniformPattern(serialNet.Endpoints())
	patP := uniformPattern(parNet.Endpoints())
	parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs) // warm shard map + arenas
	const reps = 3
	minS, minP := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		serialNet.RunLoad(patS, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minS {
			minS = d
		}
		start = time.Now()
		parNet.RunLoad(patP, streamGateLoad, speedupGateMsgs)
		if d := time.Since(start); d < minP {
			minP = d
		}
	}
	speedup := float64(minS) / float64(minP)
	t.Logf("serial %v, 4 workers %v: %.2fx", minS, minP, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx below the 1.5x gate (serial %v, parallel %v)",
			speedup, minS, minP)
	}
}

// BenchmarkRunLoadParallel measures the class-1 hot path across worker
// counts (1 = one shard, no goroutines or barriers).
func BenchmarkRunLoadParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			nw := class1StreamNet(b)
			nw.SetWorkers(w)
			pattern := uniformPattern(nw.Endpoints())
			nw.RunLoad(pattern, streamGateLoad, speedupGateMsgs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.RunLoad(pattern, streamGateLoad, speedupGateMsgs)
			}
		})
	}
}
