// Command perfbench is the end-to-end benchmark of the AGE pipeline. It
// drives three workloads through the public functions of internal/ingest,
// internal/cluster, internal/projection, internal/core and internal/seccomm,
// checks that every output is correct, and prints one JSON result line.
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload runs twice in one process, first untraced and then with
// the benchmark's own wrappers timing every call into a layer; the result
// carries the per-layer ladder and the tracing overhead.
//
// The program is never modified: all instrumentation lives in this
// package's FrameSource, Session/Handler, Stager, Decoder and Sealer
// wrappers.
//
// Usage (run.py builds this package first, from the repository root):
//
//	python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its report.
// The exit code is 0 for a correct run, 1 when a correctness check failed
// and 2 when the benchmark could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: stream, paced or gateway")
	seed := fs.Int64("seed", 1, "seed for frame contents, sensor order and the gateway queue")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	spanDir := fs.String("span-dir", "", "directory for the traced run's spans (JSON lines; empty = keep none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := defaultOptions(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	o.spanDir = *spanDir
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	res.print(stdout)
	if !res.correct {
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, f)
		}
		return 1
	}
	return 0
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the metrics of its mode plus the
// correctness verdict and frame counts.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
	// notes are the human-readable lines printed before the JSON line:
	// sample counts, the ladder, the gap it leaves unexplained.
	notes []string
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, then the result as the last line of stdout.
func (r *result) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(out, "%s: %s\n", r.workload, n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(out, "%s\n", line)
}
