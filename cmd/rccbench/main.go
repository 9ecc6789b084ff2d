// Command rccbench regenerates the RCC paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, with the
// paper's values in the table titles where it states them (-exp summary
// sets the headline ratios beside the paper's).
//
// Usage:
//
//	rccbench -exp all        # every flow-model experiment
//	rccbench -exp fig8a      # one experiment
//	rccbench -exp fig10      # simnet failure timeline (slower)
//	rccbench -exp chaos      # randomized fault harness over live TCP (slow)
//	rccbench -list           # list experiment IDs
//
// The chaos experiment takes extra flags: -seed, -nodes, -duration, -wan,
// and -artifacts (where a failed run leaves its flight rings and merged
// timeline). It exits non-zero when an invariant is violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list)")
	list := flag.Bool("list", false, "list experiment IDs")
	seed := flag.Int64("seed", 0, "chaos: fault schedule seed (same seed, same schedule)")
	nodes := flag.Int("nodes", 4, "chaos: cluster size (4-7)")
	duration := flag.Duration("duration", 5*time.Minute, "chaos: run length")
	wan := flag.Bool("wan", false, "chaos: apply the five-region WAN latency profile")
	artifacts := flag.String("artifacts", "", "chaos: directory for failure artifacts")
	verbose := flag.Bool("v", false, "chaos: stream fault actions to stderr")
	flag.Parse()

	byID := map[string]func() *bench.Table{
		"fig1left":  func() *bench.Table { return bench.Fig1(20) },
		"fig1right": func() *bench.Table { return bench.Fig1(400) },
		"fig6":      bench.Fig6,
		"fig7left":  bench.Fig7Left,
		"fig7right": bench.Fig7Right,
		"fig8a":     bench.Fig8a,
		"fig8b":     bench.Fig8b,
		"fig8c":     bench.Fig8c,
		"fig8d":     bench.Fig8d,
		"fig8e":     bench.Fig8e,
		"fig8f":     bench.Fig8f,
		"fig8g":     bench.Fig8g,
		"fig8h":     bench.Fig8h,
		"fig9":      bench.Fig9,
	}
	order := []string{
		"fig1left", "fig1right", "fig6", "fig7left", "fig7right",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
		"fig9", "fig10", "statesync", "stages", "timeline", "crypto", "summary", "validate",
		"chaos", // excluded from -exp all: minutes-long live-cluster run
	}

	if *list {
		for _, id := range order {
			fmt.Println(id)
		}
		return
	}

	runOne := func(id string) {
		switch id {
		case "fig10":
			t, err := bench.Fig10(bench.DefaultFig10())
			if err != nil {
				fmt.Fprintf(os.Stderr, "fig10: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		case "statesync":
			t, err := bench.StateSync()
			if err != nil {
				fmt.Fprintf(os.Stderr, "statesync: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		case "stages":
			t, err := bench.Stages()
			if err != nil {
				fmt.Fprintf(os.Stderr, "stages: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		case "timeline":
			t, err := bench.Timeline()
			if err != nil {
				fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		case "crypto":
			t, err := bench.LiveCrypto()
			if err != nil {
				fmt.Fprintf(os.Stderr, "crypto: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		case "chaos":
			t, rep, err := bench.Chaos(bench.ChaosOptions{
				Seed: *seed, Nodes: *nodes, Duration: *duration,
				WAN: *wan, ArtifactDir: *artifacts, Verbose: *verbose,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
			fmt.Println(rep.Summary())
			if !rep.Passed() {
				os.Exit(1)
			}
		case "summary":
			fmt.Println(bench.Summary().Render())
		case "validate":
			t, err := bench.Validate()
			if err != nil {
				fmt.Fprintf(os.Stderr, "validate: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.Render())
		default:
			f, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			fmt.Println(f().Render())
		}
	}

	if *exp == "all" {
		for _, id := range order {
			if id == "chaos" {
				continue
			}
			runOne(id)
		}
		return
	}
	runOne(*exp)
}
