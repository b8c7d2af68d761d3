package bench

import (
	"errors"
	"fmt"

	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The chaos-scale benchmark is the scale benchmark's fault-tolerant twin:
// the same sparse hierarchical Alltoallw (16 wrap-around peers, 32 KiB
// legs, lazy payloads), but driven through the rank-crash preset — a rank
// dies mid-collective, the failure detector fires, survivors Agree +
// Shrink and retry on the dense survivor communicator, and every retried
// leg must land checksum-exact through the span algebra. Three modes:
//
//   - no-fault:            the collective completes untouched (baseline),
//   - rank-crash:          crash + shrink + verified retry,
//   - rank-crash+restore:  as above, plus each survivor's registered state
//     is rolled back to a pre-run coordinated checkpoint (internal/ckpt)
//     during recovery, and the dead rank's snapshot is re-verified via its
//     buddy.
//
// The point of the table is the wall-time column: recovery at 1024 ranks
// costs seconds, not minutes, because lazy payloads make the crash, the
// retransmissions, and the checkpoint snapshots all O(spans) instead of
// O(bytes).

// chaosScaleSeed fixes the rank-crash preset draw for every table cell:
// rank 2 dies at 27 us, inside the first collective's failure window.
const chaosScaleSeed = 1

// chaosHorizonNs bounds the survivor retry loop: crash time plus the
// detection bound plus slack, same constant the chaos test matrix uses.
const chaosHorizonNs = 400_000

// chaosStateBytes is the per-rank registered state a restore-mode run
// checkpoints and rolls back: 1 MiB, far above the lazy threshold, so the
// snapshot is a span clone.
const chaosStateBytes = 1 << 20

// chaosRetryLayout is the per-leg datatype for the post-shrink retry:
// contiguous 32 KiB, so a delivered leg's span-algebra checksum can be
// compared directly against the sender's without materializing either.
func chaosRetryLayout() *datatype.Layout {
	return datatype.Commit(datatype.Contiguous(32<<10, datatype.Byte))
}

// chaosMeasure extends scaleMeasure with the fault-path observables.
type chaosMeasure struct {
	scaleMeasure
	crashed int
	retrans int64
}

// runChaosScale drives one chaos-scale cell. mode is one of "no-fault",
// "rank-crash", "rank-crash+restore".
func runChaosScale(ranks int, mode string) (chaosMeasure, error) {
	var cm chaosMeasure
	withFaults := mode != "no-fault"
	withRestore := mode == "rank-crash+restore"
	var plan *fault.Plan
	if withFaults {
		var err error
		plan, err = fault.Preset("rank-crash", chaosScaleSeed)
		if err != nil {
			return cm, err
		}
	}
	env, w, err := scaleWorldCfg(ranks, true, func(c *mpi.Config) { c.Faults = plan })
	if err != nil {
		return cm, err
	}
	size := w.Size()
	ops := makeScaleA2AOps(w, collLayout())
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})

	// Dead set and dense survivor re-rank, known up front from the plan.
	dead := make(map[int]bool)
	if withFaults {
		for _, cr := range plan.Proc.Crashes {
			if cr.Rank < size {
				dead[cr.Rank] = true
			}
		}
	}
	nSurv := size - len(dead)
	world2comm := make([]int, size)
	comm2world := make([]int, 0, nSurv)
	for i, cr := 0, 0; i < size; i++ {
		if dead[i] {
			world2comm[i] = -1
			continue
		}
		world2comm[i] = cr
		comm2world = append(comm2world, i)
		cr++
	}

	// Retry state for the survivor comm: the same sparse wrap-around
	// pattern, re-wrapped in comm-rank space with fresh buffers.
	var retry [][]coll.WOp
	if withFaults {
		rl := chaosRetryLayout()
		half := scaleNeighbors / 2
		retry = make([][]coll.WOp, nSurv)
		for cr := 0; cr < nSurv; cr++ {
			dev := w.Rank(comm2world[cr]).Dev
			retry[cr] = make([]coll.WOp, nSurv)
			for d := 1; d <= half; d++ {
				for _, peer := range []int{(cr + d) % nSurv, (cr - d + nSurv) % nSurv} {
					if retry[cr][peer].SendBuf != nil {
						continue
					}
					sb := dev.Alloc(fmt.Sprintf("cx-s-%d-%d", cr, peer), int(rl.ExtentBytes))
					rb := dev.Alloc(fmt.Sprintf("cx-r-%d-%d", cr, peer), int(rl.ExtentBytes))
					sb.FillStream(uint64(cr)<<32 | uint64(peer+1))
					retry[cr][peer] = coll.WOp{SendBuf: sb, SendType: rl, SendCount: 1, RecvBuf: rb, RecvType: rl, RecvCount: 1}
				}
			}
		}
	}

	// Restore mode: register per-rank state and take the coordinated
	// checkpoint before the run, driver-side.
	var st *ckpt.Store
	var state []*gpu.Buffer
	var stateSums []uint64
	if withRestore {
		st = ckpt.NewStore(size)
		state = make([]*gpu.Buffer, size)
		stateSums = make([]uint64, size)
		for r := 0; r < size; r++ {
			state[r] = w.Rank(r).Dev.Alloc(fmt.Sprintf("cx-st-%d", r), chaosStateBytes)
			state[r].FillStream(uint64(0xC0FFEE + r))
			stateSums[r] = state[r].Checksum()
			st.Register(r, state[r])
		}
		if ep := st.CaptureAll(env.Now(), 0); ep == nil || !ep.Committed() {
			return cm, errors.New("bench: chaos-scale checkpoint did not commit")
		}
	}

	var bodyErr error
	fail := func(format string, args ...any) {
		if bodyErr == nil {
			bodyErr = fmt.Errorf(format, args...)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		if !withFaults {
			if cerr := e.Alltoallw(p, r, ops[me]); cerr != nil {
				fail("rank %d: %w", me, cerr)
			}
			return
		}
		var cerr error
		for cerr == nil && p.Now() < chaosHorizonNs {
			cerr = e.Alltoallw(p, r, ops[me])
		}
		if !errors.Is(cerr, mpi.ErrRankFailed) && !errors.Is(cerr, mpi.ErrCommRevoked) {
			fail("rank %d: expected typed failure, got %v", me, cerr)
			return
		}
		wc := w.WorldComm()
		if _, aerr := wc.Agree(p, r, 0); aerr == nil {
			fail("rank %d: Agree did not surface the failure", me)
			return
		}
		sub, serr := wc.Shrink(p, r)
		if serr != nil {
			fail("rank %d: shrink: %w", me, serr)
			return
		}
		if sub.Size() != nSurv || sub.CommRank(me) != world2comm[me] {
			fail("rank %d: shrunken comm size=%d commRank=%d, want %d/%d",
				me, sub.Size(), sub.CommRank(me), nSurv, world2comm[me])
			return
		}
		if withRestore {
			// The crash invalidated in-progress work: roll the registered
			// state back to the coordinated checkpoint.
			st.MarkDead(firstKey(dead))
			state[me].FillStream(0xBAD)
			if _, _, rerr := st.RestoreRank(me); rerr != nil {
				fail("rank %d: restore: %w", me, rerr)
				return
			}
		}
		if rerr := e.Sub(sub).Alltoallw(p, r, retry[world2comm[me]]); rerr != nil {
			fail("rank %d: retry on shrunken comm: %w", me, rerr)
		}
	})
	cm.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	cm.virtNs = env.Now()
	cm.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	for i := 0; i < size; i++ {
		cm.kernels += w.Rank(i).Dev.Stats.KernelLaunches
	}
	cm.crashed = len(w.CrashedRanks())
	cm.retrans = w.Injector().Count(fault.Retransmit)
	if runErr != nil {
		return cm, fmt.Errorf("bench: chaos-scale world: %w", runErr)
	}
	if bodyErr != nil {
		return cm, bodyErr
	}
	if withFaults && cm.crashed != len(dead) {
		return cm, fmt.Errorf("bench: %d ranks crashed, plan says %d", cm.crashed, len(dead))
	}

	// Checksum-exact delivery of the retried legs, straight through the
	// span algebra — no materialization at any rank count. (The baseline
	// mode's strided delivery is covered by the conformance suite; here it
	// only has to complete leak-free.)
	if withFaults {
		for cr := 0; cr < nSurv; cr++ {
			for peer := range retry[cr] {
				if retry[cr][peer].SendBuf == nil {
					continue
				}
				if retry[cr][peer].RecvBuf.Checksum() != retry[peer][cr].SendBuf.Checksum() {
					return cm, fmt.Errorf("bench: comm rank %d recv-from-%d not checksum-exact after shrink retry", cr, peer)
				}
			}
		}
	}
	if withRestore {
		for _, i := range comm2world {
			if state[i].Checksum() != stateSums[i] {
				return cm, fmt.Errorf("bench: rank %d state not rolled back to the checkpoint", i)
			}
		}
		// The dead rank's snapshot survives on its buddy.
		d := firstKey(dead)
		if !st.Available(d) {
			return cm, fmt.Errorf("bench: dead rank %d snapshot unavailable despite live buddy", d)
		}
		adopted := w.Rank(st.Buddy(d)).Dev.Alloc("cx-adopt", chaosStateBytes)
		if _, aerr := st.AdoptRank(st.Buddy(d), d, []*gpu.Buffer{adopted}); aerr != nil {
			return cm, fmt.Errorf("bench: buddy adoption: %w", aerr)
		}
		if adopted.Checksum() != stateSums[d] {
			return cm, fmt.Errorf("bench: adopted state differs from rank %d's captured state", d)
		}
	}
	if err := endChecks("chaos-scale run", env, w, nil); err != nil {
		return cm, err
	}
	if fj := w.PendingFusedJobs(); fj != 0 {
		return cm, fmt.Errorf("bench: chaos-scale run stranded %d fused jobs", fj)
	}
	return cm, nil
}

// firstKey returns the single key of a one-element set (the rank-crash
// preset kills exactly one rank).
func firstKey(m map[int]bool) int {
	for k := range m {
		return k
	}
	return -1
}

// chaosScaleModes are the table's columns-worth of scenarios, in order.
var chaosScaleModes = []string{"no-fault", "rank-crash", "rank-crash+restore"}

// chaosScaleRow runs one (ranks, mode) cell and renders it.
func chaosScaleRow(ranks int, mode string) []string {
	m, err := runChaosScale(ranks, mode)
	if err != nil {
		return []string{mode, fmt.Sprint(ranks), fmt.Sprint(ranks / 4), "ERROR: " + err.Error(), "", "", "", ""}
	}
	return []string{
		mode, fmt.Sprint(ranks), fmt.Sprint(ranks / 4),
		fmt.Sprintf("%.1f", float64(m.virtNs)/1e6),
		fmt.Sprintf("%.0f", float64(m.wall.Microseconds())/1000),
		fmt.Sprintf("%.1f", m.allocMB),
		fmt.Sprint(m.kernels),
		fmt.Sprint(m.crashed),
	}
}

// ChaosScale is the chaos-at-scale table (ddtbench -fig chaos-scale):
// wall time for the sparse hierarchical Alltoallw under rank crashes with
// shrink + verified retry, with and without checkpoint/restore, across
// rank counts up to maxRanks. Lazy payload mode throughout.
func ChaosScale(maxRanks int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Chaos at scale: Alltoallw-hier (16 peers x 32 KiB, lazy) under rank-crash preset seed %d, Lassen model, Proposed-Tuned",
			int64(chaosScaleSeed)),
		Header: []string{"mode", "ranks", "nodes", "virt_ms", "wall_ms", "alloc_MB", "kernels", "crashed"},
	}
	for _, ranks := range []int{64, 256, 1024} {
		if ranks > maxRanks {
			continue
		}
		for _, mode := range chaosScaleModes {
			t.Rows = append(t.Rows, chaosScaleRow(ranks, mode))
		}
	}
	return t
}
