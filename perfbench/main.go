// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed wall window and
// prints, as its last line of standard output, a JSON object:
//
//	{"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 half the window runs untraced and half traced,
// and the metrics are the per-layer split. See README.md for the
// workloads, the metric definitions and what each layer metric should move.
//
// Run it through run.sh, which builds it from the enclosing checkout:
//
//	bash perfbench/run.sh --workload served-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params is what one invocation runs.
type params struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// Short shrinks every size for the self-tests; the measured
	// configuration never sets it.
	Short bool
	// OutDir receives the span dump of a traced run.
	OutDir string
}

// trialSeed derives the seed of a run's trial i from the run's seed, so
// that no two runs with different seeds share a trial's inputs.
func trialSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// workloads maps each name to its runner. A runner returns the run's
// metrics, its configuration record, and how many operations it attempted
// and how many failed (errors plus read-oracle mismatches).
var workloads = map[string]func(ctx context.Context, p params) (*outcome, error){
	"served-zipf": runServedZipf,
	"fleet-write": runFleetWrite,
	"sim-write":   runSimWrite,
}

// outcome is a finished workload run.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	config            map[string]any
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// deadline bounds a whole invocation, inside the 180 s a run may take:
// set-up, warm-up, a window of up to a minute and read-back verification
// fit well inside it, so hitting it means something hung.
const deadline = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: served-zipf, fleet-write or sim-write")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 10, "measured wall window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
		outDir  = fs.String("out", ".", "directory for the span dump of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be in (0, 60] and -trace 0 or 1")
		return 2
	}
	p := params{
		Workload: *name,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		OutDir:   *outDir,
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	// A call blocked inside the program cannot observe ctx; the watchdog
	// turns such a hang into a reported failure instead of a stuck run.
	watchdog := time.AfterFunc(deadline+10*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: %s exceeded its wall deadline\n", p.Workload)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, cfg, err := execute(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.Workload, err)
		return 1
	}
	line, err := json.Marshal(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding config: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "config %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed\n", p.Workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result line and
// configuration record.
func execute(ctx context.Context, p params) (*result, map[string]any, error) {
	fn, ok := workloads[p.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	out, err := fn(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, errors.New("wall deadline exceeded")
	}
	if out.attempted < 1 {
		return nil, nil, errors.New("no operations attempted")
	}
	cfg := out.config
	cfg["workload"] = p.Workload
	cfg["seed"] = p.Seed
	cfg["window_s"] = p.Window.Seconds()
	cfg["trace"] = p.Trace
	cfg["gomaxprocs"] = runtime.GOMAXPROCS(0)
	cfg["nproc"] = runtime.NumCPU()
	cfg["go"] = runtime.Version()
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, cfg, nil
}
