package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// The scale benchmark drives the simulator core to 1024 ranks (256 Lassen
// nodes), the regime the lazy-bytes payload mode and the pooled-worker /
// sharded-event-queue scheduler exist for. Two communication patterns:
//
//   - a2a-hier: sparse personalized Alltoallw (each rank exchanges 32 KiB
//     strided legs with its 16 wrap-around neighbors; the other legs are
//     zero, which the hierarchical schedule skips entirely) under the
//     two-level node-leader aggregation.
//   - halo3d: one 3D halo timestep — a NeighborAlltoallw of the six faces
//     of a 16^3 double grid over a periodic Cartesian decomposition.
//
// Byte-exact rows are capped at 64 ranks: real bytes make memory and copy
// cost scale with ranks x message size (the 8-rank exact row is the
// reference the conformance suite checks lazy mode against). Lazy rows
// carry payloads as span algebra, so the same patterns reach 1024 ranks
// in seconds of wall time with near-flat per-rank allocation.

// scalePollNs is the progress-engine poll period for scale runs. The
// 200 ns default generates poll events proportional to ranks x
// virtual-time/200ns — billions at 1024 ranks; 5 us keeps the event queue
// tractable without perturbing the multi-microsecond collective phases.
const scalePollNs = 5000

// scaleNeighbors is the sparse all-to-all degree: 8 wrap-around peers on
// each side.
const scaleNeighbors = 16

// scaleMeasure is one scale run: virtual completion time, real wall time,
// bytes allocated over the run, and total kernel launches.
type scaleMeasure struct {
	virtNs  int64
	wall    time.Duration
	allocMB float64
	kernels int64
}

// scaleWorld builds a Lassen-model world with ranks/4 nodes; lazy flips
// every device to the 4 KiB lazy-bytes threshold.
func scaleWorld(ranks int, lazy bool) (*sim.Env, *mpi.World, error) {
	return scaleWorldCfg(ranks, lazy, nil)
}

// scaleWorldCfg is scaleWorld with a config hook, for runs that need
// fault injection or tracing on top of the scale defaults.
func scaleWorldCfg(ranks int, lazy bool, mut func(*mpi.Config)) (*sim.Env, *mpi.World, error) {
	if ranks < 8 || ranks%4 != 0 {
		return nil, nil, fmt.Errorf("bench: scale needs ranks >= 8 divisible by 4, got %d", ranks)
	}
	spec := cluster.Lassen().WithNodes(ranks / 4)
	env := sim.NewEnv()
	c, err := cluster.Build(env, spec)
	if err != nil {
		return nil, nil, err
	}
	if lazy {
		for _, node := range c.Devices {
			for _, d := range node {
				d.LazyThreshold = 4096
			}
		}
	}
	cfg := mpi.DefaultConfig()
	cfg.PollIntervalNs = scalePollNs
	if mut != nil {
		mut(&cfg)
	}
	return env, mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned")), nil
}

// measure wraps one world run with wall-clock and allocation accounting.
func measure(env *sim.Env, w *mpi.World, body func(r *mpi.Rank, p *sim.Proc)) (scaleMeasure, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := w.Run(body)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	m := scaleMeasure{
		virtNs:  env.Now(),
		wall:    wall,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
	for i := 0; i < w.Size(); i++ {
		m.kernels += w.Rank(i).Dev.Stats.KernelLaunches
	}
	if err == nil {
		err = endChecks("scale run", env, w, nil)
	}
	return m, err
}

// endChecks is the end-of-run leak oracle of the scale-style figures: no
// leaked request, no live proc and, when the run built a one-sided fabric
// (f != nil), no pending one-sided op.
func endChecks(run string, env *sim.Env, w *mpi.World, f *rma.Fabric) error {
	if lk := w.LeakedRequests(); lk != 0 {
		return fmt.Errorf("bench: %s leaked %d requests", run, lk)
	}
	if lp := env.LiveProcs(); lp != 0 {
		return fmt.Errorf("bench: %s left %d live procs", run, lp)
	}
	if f != nil {
		if po := f.PendingOps(); po != 0 {
			return fmt.Errorf("bench: %s left %d one-sided ops pending", run, po)
		}
	}
	return nil
}

// makeScaleA2AOps builds the sparse op matrix: every rank has nonzero legs
// only with its scaleNeighbors wrap-around peers, a world-sized op vector
// otherwise zero.
func makeScaleA2AOps(w *mpi.World, l *datatype.Layout) [][]coll.WOp {
	size := w.Size()
	half := scaleNeighbors / 2
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		ops[r] = make([]coll.WOp, size)
		for d := 1; d <= half; d++ {
			for _, peer := range []int{(r + d) % size, (r - d + size) % size} {
				if ops[r][peer].SendBuf != nil {
					continue // tiny worlds: +d and -d can alias
				}
				sb := dev.Alloc(fmt.Sprintf("sc-s-%d-%d", r, peer), int(l.ExtentBytes))
				rb := dev.Alloc(fmt.Sprintf("sc-r-%d-%d", r, peer), int(l.ExtentBytes))
				sb.FillStream(uint64(r)<<32 | uint64(peer+1))
				ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
			}
		}
	}
	return ops
}

// runScaleA2A runs the sparse hierarchical Alltoallw — the shape the
// hierarchical schedule's zero-leg skipping turns from O(ranks^2) into
// O(ranks x K).
func runScaleA2A(ranks int, lazy bool) (scaleMeasure, error) {
	env, w, err := scaleWorld(ranks, lazy)
	if err != nil {
		return scaleMeasure{}, err
	}
	ops := makeScaleA2AOps(w, collLayout()) // 32 KiB strided legs
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
	var bodyErr error
	m, err := measure(env, w, func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil && bodyErr == nil {
			bodyErr = fmt.Errorf("rank %d: %w", r.ID(), cerr)
		}
	})
	if err == nil {
		err = bodyErr
	}
	return m, err
}

// scaleDims3 factors ranks into the most balanced 3D grid (largest
// dimension first): 8 -> 2x2x2, 64 -> 4x4x4, 256 -> 8x8x4, 1024 -> 16x8x8.
func scaleDims3(ranks int) [3]int {
	best := [3]int{ranks, 1, 1}
	for a := 1; a*a*a <= ranks; a++ {
		if ranks%a != 0 {
			continue
		}
		m := ranks / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			if c-a < best[0]-best[2] {
				best = [3]int{c, b, a}
			}
		}
	}
	return best
}

// runScaleHalo runs one 3D halo timestep: the six faces of an n^3 double
// grid exchanged as a fused NeighborAlltoallw over a periodic Cartesian
// decomposition of all ranks.
func runScaleHalo(ranks int, lazy bool) (scaleMeasure, error) {
	env, w, err := scaleWorld(ranks, lazy)
	if err != nil {
		return scaleMeasure{}, err
	}
	dims := scaleDims3(ranks)
	cart := w.CartCreate(dims[:], []bool{true, true, true})
	const n = 16
	in := n - 2
	mk := func(sub, start []int) *datatype.Layout {
		return datatype.Commit(datatype.Subarray([]int{n, n, n}, sub, start, datatype.Float64))
	}
	faces := map[string]*datatype.Layout{
		"x-": mk([]int{1, in, in}, []int{1, 1, 1}),
		"x+": mk([]int{1, in, in}, []int{n - 2, 1, 1}),
		"y-": mk([]int{in, 1, in}, []int{1, 1, 1}),
		"y+": mk([]int{in, 1, in}, []int{1, n - 2, 1}),
		"z-": mk([]int{in, in, 1}, []int{1, 1, 1}),
		"z+": mk([]int{in, in, 1}, []int{1, 1, n - 2}),
	}
	size := w.Size()
	gridBytes := n * n * n * 8
	ops := make([][]mpi.NeighborOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		grid := dev.Alloc(fmt.Sprintf("hg-%d", r), gridBytes)
		ghost := dev.Alloc(fmt.Sprintf("hh-%d", r), gridBytes)
		grid.FillStream(uint64(r + 1))
		for axis, ax := range [][2]string{{"x-", "x+"}, {"y-", "y+"}, {"z-", "z+"}} {
			mPeer, pPeer := cart.Shift(r, axis, 1)
			ops[r] = append(ops[r],
				mpi.NeighborOp{Peer: mPeer, SendBuf: grid, SendType: faces[ax[0]],
					RecvBuf: ghost, RecvType: faces[ax[1]], Count: 1},
				mpi.NeighborOp{Peer: pPeer, SendBuf: grid, SendType: faces[ax[1]],
					RecvBuf: ghost, RecvType: faces[ax[0]], Count: 1},
			)
		}
	}
	e := coll.New(w, coll.Tuning{})
	var bodyErr error
	m, err := measure(env, w, func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.NeighborAlltoallw(p, r, ops[r.ID()]); cerr != nil && bodyErr == nil {
			bodyErr = fmt.Errorf("rank %d: %w", r.ID(), cerr)
		}
	})
	if err == nil {
		err = bodyErr
	}
	return m, err
}

// scaleRow runs one (pattern, ranks, mode) cell and renders it.
func scaleRow(pattern string, ranks int, lazy bool) []string {
	var m scaleMeasure
	var err error
	switch pattern {
	case "a2a-hier":
		m, err = runScaleA2A(ranks, lazy)
	case "halo3d":
		m, err = runScaleHalo(ranks, lazy)
	}
	mode := "exact"
	if lazy {
		mode = "lazy"
	}
	if err != nil {
		return []string{pattern, fmt.Sprint(ranks), fmt.Sprint(ranks / 4), mode, "ERROR: " + err.Error(), "", "", ""}
	}
	return []string{
		pattern, fmt.Sprint(ranks), fmt.Sprint(ranks / 4), mode,
		fmt.Sprintf("%.1f", float64(m.virtNs)/1e6),
		fmt.Sprintf("%.0f", float64(m.wall.Microseconds())/1000),
		fmt.Sprintf("%.1f", m.allocMB),
		fmt.Sprint(m.kernels),
	}
}

// Scale is the scaling benchmark table (ddtbench -fig scale): wall time
// and allocation volume for both patterns across rank counts up to
// maxRanks. Exact mode stops at 64 ranks by design (see the file comment).
func Scale(maxRanks int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Scale: sparse Alltoallw-hier (16 peers x 32 KiB) and halo3d (16^3 doubles), Lassen model, Proposed-Tuned, poll %d ns",
			int64(scalePollNs)),
		Header: []string{"pattern", "ranks", "nodes", "mode", "virt_ms", "wall_ms", "alloc_MB", "kernels"},
	}
	for _, pattern := range []string{"a2a-hier", "halo3d"} {
		for _, ranks := range []int{8, 64, 256, 1024} {
			if ranks > maxRanks {
				continue
			}
			if ranks <= 64 {
				t.Rows = append(t.Rows, scaleRow(pattern, ranks, false))
			}
			t.Rows = append(t.Rows, scaleRow(pattern, ranks, true))
		}
	}
	return t
}
