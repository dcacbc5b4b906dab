// readys-fig regenerates the data behind a figure of the paper's evaluation
// section and writes it as CSV (or an aligned table on the terminal).
//
// Usage:
//
//	readys-fig -fig 3 -models models -o figure3.csv
//	readys-fig -fig 7
//
// Figures 3-6 and the resilience, stream and ablation tables load the
// committed checkpoints from -models (readys-train -all makes them); a
// missing one is an error that names the readys-train command for it. The
// ablation and the search train their other variants in memory, for
// -episodes each, on every run.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"readys/internal/exp"
)

func main() {
	var (
		fig      = flag.String("fig", "3", "figure: 3, 4, 5, 6, 7, resilience, stream, ablation or search")
		models   = flag.String("models", exp.DefaultModelsDir(), "model directory")
		out      = flag.String("o", "", "output CSV path (default: stdout as text)")
		runs     = flag.Int("runs", exp.Figure7Runs, "figure 7: episodes per size")
		episodes = flag.Int("episodes", 4000, "ablation/search: training episodes per variant")
		trials   = flag.Int("trials", 6, "search: number of sampled configurations")
	)
	flag.Parse()
	for _, c := range []struct {
		flag string
		n    int
	}{{"-runs", *runs}, {"-episodes", *episodes}, {"-trials", *trials}} {
		if err := exp.CheckCount(c.flag, c.n, 1); err != nil {
			log.Fatal(err)
		}
	}

	var (
		tab *exp.Table
		err error
	)
	switch *fig {
	case "3":
		tab, err = exp.Figure3(*models)
	case "4":
		tab, err = exp.Figure4(*models)
	case "5":
		tab, err = exp.Figure5(*models)
	case "6":
		tab, err = exp.Figure6(*models)
	case "7":
		tab, _, err = exp.Figure7(exp.Figure7Sizes, *runs)
	case "resilience":
		tab, err = exp.ResilienceFigure(*models)
	case "stream":
		tab, err = exp.StreamFigure(*models)
	case "ablation":
		tab, err = exp.Ablation(*models, *episodes)
	case "search":
		_, tab, err = exp.RandomSearch(rand.New(rand.NewSource(1)), *trials, *episodes)
	default:
		log.Fatalf("unknown figure %q (want 3-7, resilience, stream, ablation or search)", *fig)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		fmt.Fprint(os.Stdout, tab.Text())
		return
	}
	if err := os.WriteFile(*out, []byte(tab.CSV()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", *out, len(tab.Rows))
}
