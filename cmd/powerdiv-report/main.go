// Command powerdiv-report regenerates every artefact of the paper's
// evaluation — the entries of experiments.Artefacts(), the data behind
// EXPERIMENTS.md — in one run and prints them as text tables. With -out
// it also writes each table as CSV: <artefact>.csv for the artefact's own
// table and <artefact>-<table>.csv for the others, one file per table.
//
// Usage:
//
//	powerdiv-report [-seed 1] [-out out/] [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"powerdiv/internal/experiments"
	"powerdiv/internal/obs"
	"powerdiv/internal/protocol"
)

// maxPrintRows is the longest table printed in full; a longer one (a
// figure's data series) prints its title and size, and -out writes it.
const maxPrintRows = 100

var (
	outDir  = flag.String("out", "", "write one CSV per table into this directory")
	seed    = flag.Int64("seed", 1, "campaign seed")
	metrics = flag.Bool("metrics", false, "print the internal metrics summary after the run")
)

func main() {
	flag.Parse()
	start := time.Now()
	obs.Enable(*metrics)

	tables := 0
	for _, a := range experiments.Artefacts() {
		v, err := a.Run(*seed)
		check(err)
		fmt.Printf("==== %s — %s ====\n\n", a.Name, a.Paper)
		for _, t := range a.Tables(v) {
			name := a.Name
			if t.Name != "" {
				name += "-" + t.Name
			}
			if len(t.Rows) > maxPrintRows {
				fmt.Printf("%s: %d rows (%s.csv)\n", t.Title, len(t.Rows), name)
			} else {
				fmt.Print(t.String())
			}
			if *outDir != "" {
				check(t.WriteCSV(filepath.Join(*outDir, name+".csv")))
			}
			tables++
			fmt.Println()
		}
	}

	if st := protocol.DefaultScope().Stats(); st.Hits+st.Misses > 0 {
		fmt.Printf("run cache: %d hits, %d misses, %d baseline entries\n", st.Hits, st.Misses, st.SummaryEntries)
	}
	if *metrics {
		fmt.Print("\n" + obs.Default().Summary())
	}
	fmt.Printf("%d tables regenerated in %s\n", tables, time.Since(start).Truncate(time.Millisecond))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
