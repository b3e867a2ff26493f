// Quickstart: build the SpectralFly topology LPS(11,7), verify the
// Ramanujan property, inspect its structural metrics, and run a small
// uniform-traffic simulation — the 5-minute tour of the library.
package main

import (
	"fmt"
	"log"

	spectralfly "repro"
)

func main() {
	// LPS(11,7): the first Table I instance — 168 routers of radix 12.
	net, err := spectralfly.LPS(11, 7)
	if err != nil {
		log.Fatal(err)
	}
	m := net.Analyze()
	fmt.Printf("%s: %d routers, radix %d, %d links\n", net.Name, m.Routers, m.Radix, m.Links)
	fmt.Printf("  diameter=%d  avg distance=%.2f  girth=%d\n", m.Diameter, m.AvgDistance, m.Girth)
	fmt.Printf("  λ(G)=%.3f ≤ 2√(k-1)=%.3f ? %v  (µ1=%.2f)\n",
		m.LambdaG, m.RamanujanBound, m.Ramanujan, m.Mu1)

	upper, lower := net.Bisection(1)
	fmt.Printf("  bisection bandwidth ∈ [%.0f, %d] links\n", lower, upper)

	// Attach 4 endpoints per router and push 30% uniform random load.
	sim, err := net.Simulate(spectralfly.SimConfig{Concentration: 4, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	st, err := sim.RunUniform(0.30, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated %d endpoints at 30%% load: delivered=%d mean latency=%.0f cycles (max %d)\n",
		sim.Endpoints(), st.Delivered, st.MeanLatency, st.MaxLatency)

	// The same radix-12 DragonFly for comparison.
	df, err := spectralfly.DragonFly(12)
	if err != nil {
		log.Fatal(err)
	}
	dm := df.Analyze()
	fmt.Printf("%s: %d routers — avg distance %.2f vs %.2f, µ1 %.2f vs %.2f\n",
		df.Name, dm.Routers, dm.AvgDistance, m.AvgDistance, dm.Mu1, m.Mu1)
}
