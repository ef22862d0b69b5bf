// Command experiment regenerates the paper's tables and figures.
//
// Usage:
//
//	experiment -run all                 # every artifact, paper-fidelity
//	experiment -run table2 -runs 50     # one artifact, more Monte-Carlo runs
//	experiment -run fig5 -fast          # quick smoke rendering
//	experiment -run table3 -csv out/    # also write machine-readable CSV
//	experiment -run table2 -parallel 8  # fan Monte-Carlo cells over 8 workers
//
// Parallelism never changes the output: every Monte-Carlo cell derives
// its own RNG from the seed, so -parallel 1 and -parallel 8 produce
// byte-identical artifacts for the same -seed.
//
// Artifacts are printed as aligned text tables and ASCII plots; -csv
// additionally writes one CSV file per artifact into the directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	var (
		id       = fs.String("run", "all", "experiment id ("+strings.Join(experiment.SortedIDs(), ", ")+") or 'all'")
		seed     = fs.Int64("seed", 1, "random seed (same seed, same artifacts)")
		runs     = fs.Int("runs", 0, "Monte-Carlo runs for tables 2-3 (0 = default 20)")
		fast     = fs.Bool("fast", false, "shrink spans and runs for a quick smoke pass")
		csv      = fs.String("csv", "", "directory to also write per-artifact CSV files into")
		md       = fs.Bool("md", false, "print artifacts as markdown instead of text/ASCII")
		parallel = fs.Int("parallel", 0, "worker count for Monte-Carlo cells (0 = one per CPU); output is identical at any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiment.Options{Seed: *seed, Runs: *runs, Fast: *fast, Parallelism: *parallel}

	var exps []experiment.Experiment
	switch *id {
	case "all":
		exps = experiment.Registry()
	case "ablations":
		exps = experiment.AblationRegistry()
	case "everything":
		exps = append(experiment.Registry(), experiment.AblationRegistry()...)
	default:
		e, ok := experiment.LookupAny(*id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have: %s, plus ablation-*, all, ablations, everything)",
				*id, strings.Join(experiment.SortedIDs(), ", "))
		}
		exps = []experiment.Experiment{e}
	}

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
	}

	for _, e := range exps {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		arts, err := e.Func(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for i, a := range arts {
			if *md {
				ma, ok := a.(experiment.MarkdownArtifact)
				if !ok {
					return fmt.Errorf("%s: artifact has no markdown form", e.ID)
				}
				if err := ma.WriteMarkdown(os.Stdout); err != nil {
					return err
				}
			} else if err := a.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			if *csv != "" {
				if err := writeCSV(*csv, e.ID, i, len(arts), a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeCSV(dir, id string, i, total int, a experiment.Artifact) error {
	name := id
	if total > 1 {
		name = fmt.Sprintf("%s-%c", id, 'a'+i)
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := a.WriteCSV(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	fmt.Printf("(csv written to %s)\n\n", path)
	return nil
}
