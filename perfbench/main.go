// Command perfbench runs one pass of one benchmark workload against the
// OTB store and prints its result as one JSON line. run.py builds it and
// drives it; see BENCHMARK.json at the root for the workloads and metrics.
//
//	perfbench -workload wire-read -seed 1 -seconds 1 -work DIR
//	perfbench -workload exec-hot -seed 1 -seconds 1 -work DIR -traced -trace-out t.json
//
// An untraced pass reports the end-to-end metrics. A traced pass runs the
// same seed and window but times each layer from outside, reports the
// per-layer metrics and writes a Perfetto trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 1, "timed window, in seconds")
		traced   = flag.Bool("traced", false, "traced pass: per-layer metrics and a Perfetto trace")
		work     = flag.String("work", "", "scratch directory for the durable workload's log")
		traceOut = flag.String("trace-out", "trace.json", "Perfetto trace file of a traced pass")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 0.1 || *work == "") {
		err = fmt.Errorf("need -seconds >= 0.1 and -work")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		warmup: defaultWarmup, traced: *traced, workDir: *work, traceOut: *traceOut}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
