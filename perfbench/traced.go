package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// traced measures the per-layer metrics. It first runs the workload
// untraced for half the time, as the baseline of the tracing overhead, then
// sets up a second session with the benchmark's spans, the session
// timeline and a CPU profile turned on and runs it for the other half.
// The spans, the timeline, the profile and the layer table go to
// <out>/<workload>-seed<seed>/.
func traced(wl workload, o options, dur time.Duration) (result, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", wl.name, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	base, err := newRunner(wl, o.seed, nil)
	if err != nil {
		return result{}, err
	}
	bm := base.measure(dur/2, minSteps)
	base.w.s.Close()
	runtime.GC()

	spans := newSpanLog()
	r, err := newRunner(wl, o.seed, spans)
	if err != nil {
		return result{}, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	stop, err := startCPUProfile(profPath)
	if err != nil {
		return result{}, err
	}
	gc0 := readGC()
	m := r.measure(dur/2, minSteps)
	gc1 := readGC()
	if err := stop(); err != nil {
		return result{}, err
	}
	if err := writeHeapProfile(o.memProfile); err != nil {
		return result{}, err
	}
	self, err := selfShares(profPath)
	if err != nil {
		return result{}, err
	}

	steps := float64(len(m.host))
	w := m.window
	perStep := func(v int64) float64 { return float64(v) / simWindow }
	simUs := func(v int64) float64 { return float64(v) / simWindow / 1e3 }
	met := map[string]metric{
		"sim_step_us":          {m.simStepUs(), "sim_us"},
		"trace.pack_us":        {simUs(w.pack), "sim_us"},
		"trace.launch_us":      {simUs(w.launch), "sim_us"},
		"trace.sched_us":       {simUs(w.sched), "sim_us"},
		"trace.sync_us":        {simUs(w.sync), "sim_us"},
		"trace.comm_us":        {simUs(w.comm), "sim_us"},
		"trace.retrans_us":     {simUs(w.retrans), "sim_us"},
		"gpu.launches":         {perStep(w.launches), "count/step"},
		"gpu.fused_requests":   {perStep(w.fusedRequests), "count/step"},
		"gpu.segments":         {perStep(w.segments), "count/step"},
		"layoutcache.hits":     {perStep(w.hits), "count/step"},
		"layoutcache.compiles": {perStep(w.compiles), "count/step"},
		"rma.puts":             {perStep(w.puts), "count/step"},
		"rma.doorbells":        {perStep(w.doorbells), "count/step"},
		"rma.ctrl_puts":        {perStep(w.ctrlPuts), "count/step"},
		"fault.events":         {perStep(w.faultEvents), "count/step"},
		"mpi.retransmits":      {perStep(w.retransmits), "count/step"},
		"coll.rank_skew_us":    {medianInt(m.skew) / 1e3, "sim_us"},
		"ckpt.checkpoint_ms":   {median(durationsMs(m.ckpt)), "ms"},
		"payload.verify_ms":    {median(durationsMs(m.verify)), "ms"},
		"gc.cycles":            {float64(gc1.cycles-gc0.cycles) / steps, "count/step"},
		"gc.cpu_pct":           {gc1.cpuPctSince(gc0), "%"},
		"tracing.overhead_ms":  {median(durationsMs(m.host)) - median(durationsMs(bm.host)), "ms"},
	}
	for mod, pct := range self {
		met["host_self_pct."+mod] = metric{pct, "%"}
	}

	if err := spans.write(filepath.Join(dir, "spans.json")); err != nil {
		return result{}, err
	}
	if err := writeTimeline(r, filepath.Join(dir, "timeline.json")); err != nil {
		return result{}, err
	}
	if err := writeTable(met, filepath.Join(dir, "layers.txt")); err != nil {
		return result{}, err
	}
	fmt.Printf("perfbench: %s seed=%d traced steps=%d untraced steps=%d; spans, timeline, cpu.pprof and layers.txt in %s\n",
		wl.name, o.seed, len(m.host), len(bm.host), dir)
	for _, e := range append(bm.errs, m.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	failed := bm.failed + m.failed
	return result{
		Correct:   failed == 0,
		Attempted: len(bm.host) + len(m.host),
		Failed:    failed,
		Metrics:   met,
	}, nil
}

// gcSample is the garbage collector's cumulative work so far.
type gcSample struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

// cpuPctSince is the garbage collector's share of the CPU time spent since
// g0. The runtime updates these estimates at the end of each GC cycle.
func (g gcSample) cpuPctSince(g0 gcSample) float64 {
	if g.totalCPU == g0.totalCPU {
		return 0
	}
	return 100 * (g.gcCPU - g0.gcCPU) / (g.totalCPU - g0.totalCPU)
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

func writeTimeline(r *runner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.w.s.Timeline().WriteChrome(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTable writes the per-layer metrics, one per line, to path and to
// standard output.
func writeTable(met map[string]metric, path string) error {
	names := make([]string, 0, len(met))
	for n := range met {
		names = append(names, n)
	}
	slices.Sort(names)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, n := range names {
		line := fmt.Sprintf("%-28s %14.4f %s\n", n, met[n].Value, met[n].Unit)
		bw.WriteString(line)
		fmt.Print(line)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
