// Ember motifs: run the §VI-D communication motifs (Halo3D-26, Sweep3D,
// FFT) on a SpectralFly network and a DragonFly of comparable size,
// under both minimal and UGAL-L routing — the workflow behind
// Figures 9-10, sized to finish in seconds. Every motif below is built
// for a 512-rank job, so the example runs at 512 ranks.
//
// Usage:
//
//	go run ./examples/ember-motifs
package main

import (
	"fmt"
	"log"

	spectralfly "repro"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// ranks is the job size every motif below is built for.
const ranks = 512

func main() {
	lps, err := spectralfly.LPS(11, 7) // 168 routers × 4 = 672 endpoints
	if err != nil {
		log.Fatal(err)
	}
	df, err := spectralfly.DragonFlyCustom(8, 4, 33) // 264 routers × 4
	if err != nil {
		log.Fatal(err)
	}

	motifs := []traffic.Motif{
		spectralfly.Halo3D26{NX: 8, NY: 8, NZ: 8, Iters: 2},
		spectralfly.Sweep3D{PX: 32, PY: 16, Sweeps: 1},
		spectralfly.FFT{NX: 8, NY: 8, NZ: 8, Iters: 1},
		spectralfly.FFT{NX: 32, NY: 4, NZ: 4, Iters: 1},
	}

	fmt.Printf("%-18s %-9s %14s %14s %9s\n",
		"Motif", "routing", "LPS makespan", "DF makespan", "speedup")
	for _, pol := range []struct {
		name string
		p    routing.Policy
	}{{"minimal", spectralfly.RoutingMinimal}, {"ugal-l", spectralfly.RoutingUGAL}} {
		lpsSim, err := lps.Simulate(spectralfly.SimConfig{Concentration: 4, Policy: pol.p, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		dfSim, err := df.Simulate(spectralfly.SimConfig{Concentration: 4, Policy: pol.p, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range motifs {
			a, err := lpsSim.RunMotif(m, ranks)
			if err != nil {
				log.Fatal(err)
			}
			b, err := dfSim.RunMotif(m, ranks)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-18s %-9s %14d %14d %9.2f\n",
				m.Name(), pol.name, a.Makespan, b.Makespan,
				float64(b.Makespan)/float64(a.Makespan))
		}
	}
	fmt.Println("\nspeedup > 1 means SpectralFly finishes the motif faster (cf. Figures 9-10).")
}
