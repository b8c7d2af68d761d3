package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// window runs simWindow timed steps of wl and returns what the benchmark
// reports from them, plus the session's fault log.
func window(t *testing.T, wl workload, seed uint64, traced bool) (*measurement, []string) {
	t.Helper()
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	r, err := newRunner(wl, seed, spans)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	defer r.w.s.Close()
	m := r.measure(0, simWindow)
	if m.failed != 0 {
		t.Fatalf("%s: %d failed steps: %v", wl.name, m.failed, m.errs)
	}
	var events []string
	for _, e := range r.w.s.FaultEvents() {
		events = append(events, e.String())
	}
	return m, events
}

// TestSameSeedRepeats checks that two runs of one seed, one of them
// traced, repeat every simulated-clock metric and every counter bit for
// bit, and that another seed changes the fault draw of the faulty
// workload.
func TestSameSeedRepeats(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, evA := window(t, wl, 7, false)
			b, evB := window(t, wl, 7, true)
			if !slices.Equal(a.sim, b.sim) || !slices.Equal(a.skew, b.skew) {
				t.Errorf("simulated step times differ: %v/%v vs %v/%v", a.sim, a.skew, b.sim, b.skew)
			}
			if a.window != b.window {
				t.Errorf("counters differ:\n%+v\n%+v", a.window, b.window)
			}
			if !slices.Equal(evA, evB) {
				t.Errorf("fault logs differ: %d vs %d events", len(evA), len(evB))
			}
			if !wl.faulty {
				return
			}
			if a.window.faultEvents == 0 || a.window.retransmits == 0 {
				t.Errorf("fault plan injected nothing: %+v", a.window)
			}
			_, evC := window(t, wl, 8, false)
			if slices.Equal(evA, evC) {
				t.Errorf("seeds 7 and 8 drew the same %d fault events", len(evA))
			}
		})
	}
}

// TestCategoryIndexes pins the cost-category indexes snapshot reads to the
// names Breakdown prints.
func TestCategoryIndexes(t *testing.T) {
	wl, err := workloadByName("a2a-reliable-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(wl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.w.s.Close()
	for rank := 0; rank < r.w.s.NumRanks(); rank++ {
		bd := r.w.s.TraceOf(rank)
		for name, v := range map[string]int64{
			"(Un)Pack": bd.Get(0), "Launching": bd.Get(1), "Scheduling": bd.Get(2),
			"Sync": bd.Get(3), "Comm": bd.Get(4), "Retrans": bd.Get(6),
		} {
			if s := bd.String(); v != 0 && !strings.Contains(s, fmt.Sprintf("%s=%dns", name, v)) {
				t.Errorf("rank %d: %s=%d not in %q", rank, name, v, s)
			}
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want 5 at p100", v, p)
	}
}

func TestWindowedTail(t *testing.T) {
	// Three windows of 200 steps; a burst of 50 slow steps in the first
	// sets its tail but not the median over the windows.
	xs := make([]float64, 3*tailWindow)
	for i := range xs {
		xs[i] = float64(i % tailWindow)
	}
	for i := 0; i < 50; i++ {
		xs[i] = 1000
	}
	if v, p := windowedTail(xs); v != tailWindow-1-tailBeyond || p != 95 {
		t.Errorf("windowed tail = %v at p%v, want %v at p95", v, p, tailWindow-1-tailBeyond)
	}
	if v, _ := windowedTail(xs[:tailWindow-1]); v != 1000 {
		t.Errorf("windowed tail of one short window = %v, want 1000", v)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
		ok     bool
	}{
		{[]string{"runtime.memmove", "repro/internal/payload.(*Content).splice", "repro/internal/gpu.CopyRange"}, "payload", true},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", true},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mpi.(*Rank).Isend"}, "gc", true},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime", true},
		{[]string{"repro/internal/timeline.(*Recorder).Span"}, "other", true},
		{[]string{"repro/internal/payload.StreamAt", "main.verifyLegs", "main.(*runner).untimed"}, "", false},
	} {
		if got, ok := classify(c.frames); got != c.want || ok != c.ok {
			t.Errorf("classify(%v) = %q, %v; want %q, %v", c.frames, got, ok, c.want, c.ok)
		}
	}
}

// burn keeps the CPU busy long enough for the profiler to sample it.
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, st := range stacks {
		total += st.count
		if len(st.frames) > 0 && strings.HasSuffix(st.frames[0], ".burn") {
			inBurn += st.count
		}
	}
	if total == 0 || inBurn*2 < total {
		t.Errorf("%d of %d samples have burn as their leaf", inBurn, total)
	}
}
