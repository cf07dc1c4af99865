// Command experiments runs the reproduction harness: every experiment
// (E1–E12, see internal/experiments), printing its paper-style table.
//
//	experiments                 # run everything
//	experiments -run E4         # one experiment
//	experiments -seed 7         # different workload seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tweeql/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 42, "workload seed")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	flag.Parse()

	var runners []experiments.Runner
	if *run == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			r, ok := experiments.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", id)
				for _, r := range experiments.All() {
					fmt.Fprintf(os.Stderr, " %s", r.ID)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(1)
			}
			runners = append(runners, r)
		}
	}

	fmt.Printf("TweeQL/TwitInfo reproduction harness — seed %d, %s\n\n", *seed, time.Now().Format(time.RFC1123))
	failed := 0
	for _, r := range runners {
		start := time.Now()
		table, err := r.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s) FAILED: %v\n\n", r.ID, r.Name, err)
			failed++
			continue
		}
		fmt.Print(table.String())
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
