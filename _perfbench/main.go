// Command perfbench is the repository benchmark. It builds a brnode-shaped
// deployment (Pylon tier, WAS tier, a BRASS tier of two hosts, POPs routing
// straight to BRASS), drives it open-loop from a seeded schedule, checks
// every delivered payload against what the generator wrote, and prints its
// metrics by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload hot_post -seed 1 -seconds 25 -trace 0
//
// -trace 0 reports the end-to-end metrics with no decorators installed.
// -trace 1 wraps the seam interfaces (was.Publisher, brass.PubSub and the
// pylon.Subscriber it registers, brass.Backend, edge.Dialer, the ctrl and
// client connections, the generator's own calls) with timing decorators,
// switches them on and off in alternating windows, reports the per-layer
// metrics and writes the spans to <out>/spans-<workload>.jsonl.
//
// The run exits non-zero when the oracle sees a payload whose content
// differs from the write, a delivery to a stream that is not a recipient,
// or a delivery across a block in either direction. Missing deliveries,
// duplicates, reorders and unrepaired gaps are counted, not fatal.
//
// Run it through _perfbench/run.sh from the repository root, which builds
// it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: hot_post, mailbox_churn or wire_fanout")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the steady phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := specByName(*workload)
	if !ok || *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload hot_post|mailbox_churn|wire_fanout, -seconds > 0, -trace 0|1\n")
		return 2
	}
	// The whole deployment, generator included, runs on one P. With one
	// P per core every hand-off between tiers wakes an OS thread and idle
	// threads spin, and on a shared machine both cost a different amount
	// from run to run: across five seeds the median delivery of
	// wire_fanout spread 0.25 of its median with two Ps, 0.12 with one.
	runtime.GOMAXPROCS(1)
	o := options{
		seed: *seed, seconds: *seconds, traced: *traceFlag == 1, out: *out,
		drain: 5 * time.Second, setups: 3, window: time.Second,
	}
	if o.traced {
		o.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := execute(s, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	metrics := res.e2e
	if o.traced {
		metrics = res.layer
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", s.name, o.seed, o.seconds, *traceFlag)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	out2 := make(map[string]any, len(metrics))
	for _, m := range metrics {
		v := finite(m.value)
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", m.name, v, m.unit)
		out2[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out2,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// execute builds the deployment o.setups times (setup_s is the median; the
// last build carries the load), runs the steady phase and then the peak
// bursts, and analyzes the receipts.
func execute(s spec, o options) (*result, error) {
	base := time.Now()
	var (
		setups []float64
		r      *run
	)
	for i := 0; i < o.setups; i++ {
		nr, err := newRun(s, o, base)
		if err != nil {
			return nil, err
		}
		setups = append(setups, nr.setup.Seconds())
		if i < o.setups-1 {
			nr.close()
			runtime.GC() // the next set-up starts from a collected heap
			continue
		}
		r = nr
	}
	defer r.close()
	// Start the measurement from a collected heap, not one holding the
	// torn-down set-ups.
	runtime.GC()

	var wins []window
	samples := make(chan []cpuSample, 1)
	go func() { samples <- r.sampleBlocks() }()
	if r.tr != nil {
		stop := make(chan struct{})
		done := make(chan []window, 1)
		go func() { done <- r.toggle(stop) }()
		r.runPhase(steadyPhase)
		close(stop)
		wins = <-done
	} else {
		r.runPhase(steadyPhase)
	}
	blocks := <-samples
	for ph := steadyPhase + 1; ph < numPhases; ph++ {
		r.runPhase(ph)
	}
	return r.analyze(setups, blocks, wins), nil
}
