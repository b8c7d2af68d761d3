// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator only through the public dkf facade, one Session.Run per step,
// and times it from outside on both of the system's clocks: host wall time
// and allocation for the simulator, simulated time for the modelled
// machine. See README.md for the workloads and metrics.
//
//	perfbench --workload bulk-exact --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a separate traced session.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	out        string
	cpuProfile string
	memProfile string
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: buffer fill streams and the fault-plan seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed steps run, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced session")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench", "trace"), "directory for the traced run's spans, timeline, CPU profile and layer table")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed loop to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at the end of the run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if trace == 1 && o.cpuProfile != "" {
		return o, fmt.Errorf("--cpuprofile applies to untraced runs; a traced run writes its own profile")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	// The simulator resumes one proc at a time, so a second P adds no
	// parallelism, only goroutine hand-offs between OS threads. On a shared
	// two-vCPU machine their wake-up latency depends on what else runs on
	// the other vCPU, which made host step times far less steady. With one
	// P the garbage collector shares the simulator's thread, so its cost
	// shows in the step times.
	runtime.GOMAXPROCS(1)
	dur := time.Duration(o.seconds * float64(time.Second))
	var res result
	if o.trace {
		res, err = traced(wl, o, dur)
	} else {
		res, err = untraced(wl, o, dur)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// startCPUProfile starts a CPU profile written to path, or nothing when
// path is empty. The returned stop ends it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes a heap profile to path, or nothing when path is
// empty. It is called while the measured session is still alive.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and the last session is the one measured.
const setupRepeats = 3

// untraced measures the end-to-end metrics.
func untraced(wl workload, o options, dur time.Duration) (result, error) {
	var setups []float64
	var r *runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.w.s.Close()
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = newRunner(wl, o.seed, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stop, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return result{}, err
	}
	m := r.measure(dur, minSteps)
	if err := stop(); err != nil {
		return result{}, err
	}
	if err := writeHeapProfile(o.memProfile); err != nil {
		return result{}, err
	}
	res := m.result()
	hostMs := durationsMs(m.host)
	p50 := median(hostMs)
	tail, pct := windowedTail(hostMs)
	rss := peakRSSMB()
	res.Metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"host_step_ms.p50":  {p50, "ms"},
		"host_step_ms.tail": {tail, "ms"},
		"alloc_MB_per_step": {float64(m.allocBytes) / float64(len(m.host)) / (1 << 20), "MB"},
		"rss_peak_MB":       {rss, "MB"},
	}
	fmt.Printf("perfbench: %s seed=%d steps=%d p50=%.3fms tail=p%.1f(median of %d windows):%.3fms sim_step_us=%.3f setup_s=%v failed=%d\n",
		wl.name, o.seed, len(m.host), p50, pct, max(1, len(hostMs)/tailWindow), tail, m.simStepUs(), setups, res.Failed)
	for _, e := range m.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return res, nil
}

// measurement is what one timed loop observed.
type measurement struct {
	host       []time.Duration // per timed step
	ckpt       []time.Duration // per timed step, when the workload checkpoints
	verify     []time.Duration // per timed step, outside the step
	sim        []int64         // makespan ns of the first simWindow steps
	skew       []int64         // rank skew ns of the first simWindow steps
	window     counters        // counter growth over the first simWindow steps
	allocBytes uint64
	failed     int
	errs       []error
}

func (m *measurement) result() result {
	return result{
		Correct:   m.failed == 0,
		Attempted: len(m.host),
		Failed:    m.failed,
	}
}

func (m *measurement) simStepUs() float64 { return medianInt(m.sim) / 1e3 }

// fail records one failed step, keeping the first few reasons.
func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err)
	}
}
