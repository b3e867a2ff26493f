// Routing simulation: sweep offered load on a chosen topology with the
// three routing algorithms of §V (minimal, Valiant, UGAL-L) and a
// synthetic pattern, printing the latency curves behind Figures 6-8.
//
// Usage:
//
//	go run ./examples/routing-sim [-topo lps|sf|bf|df] [-pattern random|shuffle|reverse|transpose]
package main

import (
	"flag"
	"fmt"
	"log"

	spectralfly "repro"
	"repro/internal/routing"
	"repro/internal/traffic"
)

func main() {
	topoName := flag.String("topo", "lps", "topology: lps, sf, bf, df")
	patName := flag.String("pattern", "shuffle", "pattern: random, shuffle, reverse, transpose")
	ranks := flag.Int("ranks", 512, "job size (power of two)")
	msgs := flag.Int("msgs", 40, "messages per rank")
	flag.Parse()

	// The Quick-scale §VI-B instance of each family and its endpoint
	// concentration.
	preset, ok := map[string]struct {
		spec string
		conc int
	}{
		"lps": {"lps(11,7)", 4},
		"sf":  {"sf(9)", 4},
		"bf":  {"bf(13,3)", 3},
		"df":  {"dfc(8,4,33)", 4},
	}[*topoName]
	if !ok {
		log.Fatalf("unknown topology %q", *topoName)
	}
	net, err := spectralfly.BuildSpec(preset.spec)
	if err != nil {
		log.Fatal(err)
	}
	conc := preset.conc

	var pat traffic.Pattern
	switch *patName {
	case "random":
		pat = spectralfly.PatternRandom
	case "shuffle":
		pat = spectralfly.PatternShuffle
	case "reverse":
		pat = spectralfly.PatternReverse
	case "transpose":
		pat = spectralfly.PatternTranspose
	default:
		log.Fatalf("unknown pattern %q", *patName)
	}

	fmt.Printf("%s with %d endpoints, %d ranks, %s pattern\n",
		net.Name, net.G.N()*conc, *ranks, pat)
	fmt.Printf("%-9s %10s %12s %12s %12s\n", "policy", "load", "mean(cyc)", "p99(cyc)", "max(cyc)")
	for _, pol := range []routing.Policy{routing.Minimal, routing.Valiant, routing.UGALL} {
		sim, err := net.Simulate(spectralfly.SimConfig{
			Concentration: conc,
			Policy:        pol,
			Seed:          7,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, load := range []float64{0.1, 0.3, 0.5, 0.7} {
			st, err := sim.RunPattern(pat, *ranks, load, *msgs)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-9s %10.2f %12.0f %12d %12d\n",
				pol, load, st.MeanLatency, st.P99Latency, st.MaxLatency)
		}
		fmt.Printf("  (VC budget for %s: %d)\n", pol, sim.VirtualChannels())
	}
}
