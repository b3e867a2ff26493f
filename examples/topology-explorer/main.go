// Topology explorer: search the LPS design space for instances close
// to a desired radix and router count — the workflow Figure 4 (upper
// left) motivates: "the absence of large gaps ... suggests the high
// likelihood of finding an LPS graph acceptably close to any given
// desired radix and vertex count combination."
//
// Usage:
//
//	go run ./examples/topology-explorer [-radix 32] [-routers 2000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sort"

	spectralfly "repro"
	"repro/internal/topo"
)

func main() {
	radix := flag.Int("radix", 32, "desired router radix")
	routers := flag.Int("routers", 2000, "desired router count")
	maxPQ := flag.Int64("maxpq", 300, "prime search bound")
	flag.Parse()

	type candidate struct {
		f     topo.Feasible
		score float64
	}
	var cands []candidate
	for _, f := range topo.LPSFeasible(*maxPQ) {
		// Normalized distance in (radix, log-size) space.
		dr := float64(f.Radix-*radix) / float64(*radix)
		dn := math.Log(float64(f.Vertices)/float64(*routers)) / math.Ln2 / 4
		cands = append(cands, candidate{f, dr*dr + dn*dn})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score < cands[j].score })

	fmt.Printf("LPS instances nearest radix=%d routers=%d:\n", *radix, *routers)
	fmt.Printf("%-16s %6s %9s %8s\n", "Instance", "Radix", "Routers", "Score")
	show := cands
	if len(show) > 8 {
		show = show[:8]
	}
	for _, c := range show {
		fmt.Printf("%-16s %6d %9d %8.4f\n", c.f.Name, c.f.Radix, c.f.Vertices, c.score)
	}
	if len(show) == 0 {
		log.Fatal("no feasible instances in search range")
	}

	// Build and fully analyze the best hit.
	net, err := spectralfly.BuildSpec(show[0].f.Name)
	if err != nil {
		log.Fatal(err)
	}
	m := net.Analyze()
	fmt.Printf("\nBest match %s:\n", net.Name)
	fmt.Printf("  diameter=%d avg distance=%.2f girth=%d Ramanujan=%v µ1=%.2f\n",
		m.Diameter, m.AvgDistance, m.Girth, m.Ramanujan, m.Mu1)

	// Closest competitors at the same radix for context (Fig 4 lower left).
	fmt.Println("\nComparable families at this radix:")
	for _, f := range topo.SlimFlyFeasible(*maxPQ) {
		if abs(f.Radix-m.Radix) <= 2 {
			fmt.Printf("  %-12s radix %d, %d routers\n", f.Name, f.Radix, f.Vertices)
		}
	}
	for _, f := range topo.DragonFlyFeasible(*radix + 3) {
		if abs(f.Radix-m.Radix) <= 2 {
			fmt.Printf("  %-12s radix %d, %d routers\n", f.Name, f.Radix, f.Vertices)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
