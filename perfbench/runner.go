package main

import (
	"fmt"
	"runtime"
	"time"

	dkf "repro"
)

const (
	// maxWarmup bounds the warm-up; a workload not warm by then is an error.
	maxWarmup = 16
	// simWindow is the number of timed steps, counted from the first, over
	// which the simulated-clock metrics and the counters are taken. A fixed
	// window keeps them identical between runs of one seed however many
	// steps the host manages in the time given.
	simWindow = 10
	// minSteps is the least number of timed steps a benchmark run makes,
	// so that the tail percentile has samples beyond it.
	minSteps = 40
)

// runner drives one workload step by step, on one session at a time.
type runner struct {
	wl    workload
	seed  uint64
	spans *spanLog
	w     *world
	// start and end are each rank's simulated clock around its body call in
	// the last step.
	start, end []int64
	errs       []error
	steps      int // steps run so far, warm-up and earlier sessions included
	timed      int // timed steps run on the current session
	// warmSim and warmCtrl are the makespan and the control puts of the
	// last warm-up step, which every timed step must repeat.
	warmSim, warmCtrl int64
}

// newRunner sets the workload up and warms it.
func newRunner(wl workload, seed uint64, spans *spanLog) (*runner, error) {
	r := &runner{wl: wl, seed: seed, spans: spans}
	if err := r.build(); err != nil {
		return nil, err
	}
	return r, nil
}

// build sets up a fresh session of the workload and warms it: it steps
// until a step compiles no plan, sends as many control puts as the step
// before (no window or offset negotiation) and, on a fault-free workload,
// repeats the previous step's simulated makespan.
func (r *runner) build() error {
	mark := func(string) {}
	if r.spans != nil {
		mark = r.spans.phase
		r.spans.phase("build")
	}
	w, err := r.wl.setup(r.seed, r.spans != nil, mark)
	if err != nil {
		return err
	}
	n := w.s.NumRanks()
	r.w, r.timed = w, 0
	r.start, r.end, r.errs = make([]int64, n), make([]int64, n), make([]error, n)
	if r.spans != nil {
		r.spans.phase("warmup")
	}
	prevSim, prevCtrl := int64(-1), int64(-1)
	for i := 0; i < maxWarmup; i++ {
		compiled, ctrl := r.warmCounters()
		st := r.step()
		if st.err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, st.err)
		}
		if err := w.verify(r.steps - 1); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
		c2, t2 := r.warmCounters()
		if c2 == compiled && t2-ctrl == prevCtrl && (r.wl.faulty || st.sim == prevSim) {
			r.warmSim, r.warmCtrl = st.sim, prevCtrl
			if r.spans != nil {
				r.spans.phase("")
			}
			return nil
		}
		prevSim, prevCtrl = st.sim, t2-ctrl
	}
	return fmt.Errorf("%s not warm after %d steps", r.wl.name, maxWarmup)
}

// warmCounters are the plans compiled and control puts sent so far, which
// a warm step must leave unchanged and repeat.
func (r *runner) warmCounters() (compiled, ctrlPuts int64) {
	r.untimed(func() {
		compiled, ctrlPuts = r.w.s.PlanStats().TotalCompiled(), r.w.s.RMAStats().CtrlPuts
	})
	return compiled, ctrlPuts
}

// stepStat is what one step observed.
type stepStat struct {
	host  time.Duration // Run plus checkpoint
	ckpt  time.Duration
	alloc uint64
	sim   int64 // slowest rank's end minus the step's start, simulated ns
	skew  int64 // slowest rank's end minus the fastest rank's end
	err   error
}

// step runs one step: new send contents (untimed), then the timed
// Session.Run and checkpoint.
func (r *runner) step() stepStat {
	w := r.w
	n := r.steps
	r.steps++
	var st stepStat
	var m0, m1 runtime.MemStats
	r.untimed(func() {
		w.refill(n)
		runtime.ReadMemStats(&m0)
	})
	t0 := time.Now()
	st.err = w.s.Run(r.rankBody)
	if w.checkpoint && st.err == nil {
		t1 := time.Now()
		if w.s.Checkpoint() == 0 {
			st.err = fmt.Errorf("checkpoint committed no epoch")
		}
		st.ckpt = time.Since(t1)
		if r.spans != nil {
			r.spans.host(n, "checkpoint", t1, st.ckpt)
		}
	}
	st.host = time.Since(t0)
	r.untimed(func() { runtime.ReadMemStats(&m1) })
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	if r.spans != nil {
		r.spans.host(n, "step", t0, st.host)
	}
	first, last, lastMin := int64(-1), int64(0), int64(-1)
	for id, on := range w.active {
		if !on {
			continue
		}
		if st.err == nil && r.errs[id] != nil {
			st.err = fmt.Errorf("rank %d: %w", id, r.errs[id])
		}
		if first < 0 || r.start[id] < first {
			first = r.start[id]
		}
		last = max(last, r.end[id])
		if lastMin < 0 || r.end[id] < lastMin {
			lastMin = r.end[id]
		}
	}
	st.sim, st.skew = last-first, last-lastMin
	return st
}

// untimed runs f, the per-step work that lies outside the timed step. The
// CPU-profile attribution leaves out every sample taken under this frame.
//
//go:noinline
func (r *runner) untimed(f func()) { f() }

// rankBody wraps the workload's per-rank call with its simulated clock.
func (r *runner) rankBody(c *dkf.RankCtx) {
	id := c.ID()
	if !r.w.active[id] {
		return
	}
	t0 := c.Now()
	r.errs[id] = r.w.body(c)
	r.start[id], r.end[id] = t0, c.Now()
	if r.spans != nil {
		r.spans.sim(r.steps-1, id, t0, r.end[id])
	}
}

// measure runs timed steps for dur, and at least n of them, verifying each
// one outside its timing.
func (r *runner) measure(dur time.Duration, n int) *measurement {
	m := &measurement{}
	before := snapshot(r.w.s)
	t0 := time.Now()
	for i := 0; i < n || time.Since(t0) < dur; i++ {
		if r.timed == r.wl.sessionSteps && r.timed > 0 {
			var err error
			r.untimed(func() { err = r.recycle(m) })
			if err != nil {
				m.fail(err)
				break
			}
		}
		r.timed++
		compiled, ctrl := r.warmCounters()
		st := r.step()
		m.host = append(m.host, st.host)
		m.allocBytes += st.alloc
		if r.w.checkpoint {
			m.ckpt = append(m.ckpt, st.ckpt)
		}
		if i < simWindow {
			m.sim = append(m.sim, st.sim)
			m.skew = append(m.skew, st.skew)
			if i == simWindow-1 {
				r.untimed(func() { m.window = snapshot(r.w.s).minus(before) })
			}
		}
		err := st.err
		if err == nil {
			c2, t2 := r.warmCounters()
			if c2 != compiled || t2-ctrl != r.warmCtrl || (!r.wl.faulty && st.sim != r.warmSim) {
				err = fmt.Errorf("step not warm: %d plans compiled, %d control puts (warm %d), makespan %d ns (warm %d ns)",
					c2-compiled, t2-ctrl, r.warmCtrl, st.sim, r.warmSim)
			}
		}
		tv := time.Now()
		var verr error
		r.untimed(func() { verr = r.w.verify(r.steps - 1) })
		if err == nil {
			err = verr
		}
		m.verify = append(m.verify, time.Since(tv))
		if r.spans != nil {
			r.spans.host(r.steps-1, "verify", tv, time.Since(tv))
		}
		if err != nil {
			m.fail(fmt.Errorf("step %d: %w", i, err))
		}
	}
	if err := r.finish(); err != nil {
		m.fail(err)
	}
	return m
}

// recycle ends the current session, recording a failed end-of-session
// check in m, and sets up and warms a fresh one.
func (r *runner) recycle(m *measurement) error {
	if err := r.finish(); err != nil {
		m.fail(err)
	}
	r.w.s.Close()
	r.w = nil
	runtime.GC()
	return r.build()
}

// finish runs the end-of-run checks: the workload's own, then no leaked
// request, no live simulation process and no pending one-sided operation.
func (r *runner) finish() error {
	s := r.w.s
	if r.w.finish != nil {
		if err := r.w.finish(r.steps - 1); err != nil {
			return fmt.Errorf("end of run: %w", err)
		}
	}
	if n := s.LeakedRequests(); n != 0 {
		return fmt.Errorf("end of run: %d leaked requests", n)
	}
	if n := s.LiveProcs(); n != 0 {
		return fmt.Errorf("end of run: %d live simulation processes", n)
	}
	if n := s.RMAPendingOps(); n != 0 {
		return fmt.Errorf("end of run: %d pending one-sided operations", n)
	}
	return nil
}

// counters is a snapshot of the session's deterministic counters, summed
// over ranks.
type counters struct {
	pack, launch, sched, sync, comm, retrans int64 // simulated ns by cost category
	launches, fusedRequests, segments        int64
	hits, compiles                           int64
	puts, doorbells, ctrlPuts                int64
	faultEvents, retransmits                 int64
}

func snapshot(s *dkf.Session) counters {
	var c counters
	for r := 0; r < s.NumRanks(); r++ {
		// The cost categories in the order of the paper's Fig. 11, then
		// Other (5, not reported) and Retrans (6).
		bd := s.TraceOf(r)
		c.pack += bd.Get(0)
		c.launch += bd.Get(1)
		c.sched += bd.Get(2)
		c.sync += bd.Get(3)
		c.comm += bd.Get(4)
		c.retrans += bd.Get(6)
		ds := s.DeviceStats(r)
		c.launches += ds.KernelLaunches
		c.fusedRequests += ds.FusedRequests
		c.segments += ds.SegmentsMoved
	}
	ps := s.PlanStats()
	c.hits, c.compiles = ps.Hits, ps.TotalCompiled()
	rs := s.RMAStats()
	c.puts, c.doorbells, c.ctrlPuts = rs.Puts+rs.PackPuts, rs.Doorbells, rs.CtrlPuts
	for _, e := range s.FaultEvents() {
		c.faultEvents++
		if e.Kind.String() == "retransmit" {
			c.retransmits++
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		pack: c.pack - o.pack, launch: c.launch - o.launch, sched: c.sched - o.sched,
		sync: c.sync - o.sync, comm: c.comm - o.comm, retrans: c.retrans - o.retrans,
		launches: c.launches - o.launches, fusedRequests: c.fusedRequests - o.fusedRequests,
		segments: c.segments - o.segments, hits: c.hits - o.hits, compiles: c.compiles - o.compiles,
		puts: c.puts - o.puts, doorbells: c.doorbells - o.doorbells, ctrlPuts: c.ctrlPuts - o.ctrlPuts,
		faultEvents: c.faultEvents - o.faultEvents, retransmits: c.retransmits - o.retransmits,
	}
}
