// Command driver runs one benchmark run: it holds the releases and the
// load generator, spawns the mediator process, and prints every metric
// by name and unit, then one JSON result line:
//
//	driver -mediator bin/mediator -workload fastpath -seed 1 -seconds 10 -trace 0
//
// It exits 1 when the correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"wsupgrade/perfbench/bench"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "driver:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	var o bench.Options
	fs.StringVar(&o.Workload, "workload", "", "workload: fastpath|campaign|bulk-json")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.MediatorBin, "mediator", "", "mediator binary")
	fs.StringVar(&o.WorkDir, "workdir", "", "directory for the run's journals and logs")
	fs.StringVar(&o.Commit, "commit", "unknown", "source tree identity for the stamp")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if o.MediatorBin == "" || o.WorkDir == "" || o.Seconds <= 0 {
		return 0, fmt.Errorf("-mediator, -workdir and a positive -seconds are required")
	}
	o.Trace = *trace == 1
	// The driver shares the box with the mediator: at most nproc (2)
	// Ps for its connections and releases.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), bench.Conns))
	rep, err := bench.Run(o)
	if err != nil {
		return 0, err
	}
	rep.Print(os.Stdout)
	stampJSON, err := json.Marshal(rep.Stamp)
	if err != nil {
		return 0, err
	}
	fmt.Printf("stamp %s\n", stampJSON)
	metrics := map[string]bench.Metric{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(o.WorkDir, "result.json"), append(line, '\n'), 0o644); err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}
