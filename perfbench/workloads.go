package main

import (
	"fmt"
	"slices"

	dkf "repro"
)

// The three workloads each stress a different part of the stack, so that a
// change to one layer shows on the workload that exercises it while another
// workload that bypasses it predicts no change (see README.md).
var workloads = []workload{
	{name: "bulk-exact", setup: setupBulkExact, sessionSteps: 40},
	{name: "a2a-1sided-lazy", setup: setupA2AOneSided},
	{name: "a2a-reliable-ckpt", setup: setupA2AReliable, faulty: true, sessionSteps: 50},
}

// workload names one benchmark configuration and builds its session.
type workload struct {
	name string
	// faulty is set when a fault plan runs: step makespans then differ
	// from step to step, so warm-up cannot wait for a repeated makespan.
	faulty bool
	// setup builds the session, calls mark("alloc") once it exists, then
	// allocates and fills the buffers.
	setup func(seed uint64, trace bool, mark func(string)) (*world, error)
	// sessionSteps is how many timed steps one session runs before the
	// runner sets up a fresh one, outside the timing. Every two-sided
	// request leaves its staging buffer registered on the device until
	// Session.Close, about 3.6 MB per bulk-exact step and 2 MB per
	// a2a-reliable-ckpt step, so without this the process would grow
	// without bound and every later step would pay for a bigger heap.
	// Zero keeps one session; otherwise it must be at least simWindow.
	sessionSteps int
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// world is one built session plus what a step needs. A step is one
// Session.Run in which every active rank calls body once, followed by a
// driver-side checkpoint when checkpoint is set.
type world struct {
	s      *dkf.Session
	active []bool // ranks that call body; the others return at once
	body   func(c *dkf.RankCtx) error
	// refill gives every send buffer the contents of step n. Steps
	// alternate between two fill streams per buffer, so a step that
	// delivers nothing cannot pass verification on the bytes the previous
	// step left behind.
	refill func(n int)
	// verify checks every received block against the block sent in step n.
	verify     func(n int) error
	checkpoint bool
	// finish runs the end-of-run checks beyond the common leak checks;
	// last is the number of the last step run.
	finish func(last int) error
}

// stream derives a buffer fill stream from the workload seed, the rank,
// the buffer index and the parity of the step, so the same seed gives the
// same inputs.
func stream(seed uint64, rank, idx, step int) uint64 {
	x := seed ^ uint64(rank)<<40 ^ uint64(idx)<<20 ^ uint64(step&1)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func traceOpts(trace bool) *dkf.TraceOptions {
	if !trace {
		return nil
	}
	return &dkf.TraceOptions{Capacity: 1 << 12}
}

// bulkDim is the specfem3D_cm dimension of bulk-exact's buffers: 6912
// blocks and 55 KB per buffer, so a step takes about 10 ms of host time
// and a burst of machine noise spans few steps.
const bulkDim = 48

// bulkBuffers is the number of buffers bulk-exact sends each way per step,
// as in the paper's bulk exchange (Figs. 9-14).
const bulkBuffers = 16

// setupBulkExact is the paper's bulk exchange: rank 0 on node 0 and the
// first rank of node 1 each send bulkBuffers sparse specfem3D_cm buffers to
// the other with Isend/Irecv and wait for all of them, with real bytes.
func setupBulkExact(seed uint64, trace bool, mark func(string)) (*world, error) {
	s, err := dkf.NewSession(dkf.SessionConfig{
		System: dkf.SystemLassen,
		Scheme: dkf.SchemeProposedTuned,
		Trace:  traceOpts(trace),
	})
	if err != nil {
		return nil, err
	}
	mark("alloc")
	wl, ok := dkf.WorkloadByName("specfem3D_cm")
	if !ok {
		return nil, fmt.Errorf("workload specfem3D_cm missing")
	}
	l := wl.Layout(bulkDim)
	pair := [2]int{0, dkf.SystemLassen.Spec().GPUsPerNode}
	var send, recv [2][]*dkf.Buffer
	for side, r := range pair {
		for i := 0; i < bulkBuffers; i++ {
			sb, err := s.AllocE(r, fmt.Sprintf("send%d", i), int(l.ExtentBytes))
			if err != nil {
				return nil, err
			}
			rb, err := s.AllocE(r, fmt.Sprintf("recv%d", i), int(l.ExtentBytes))
			if err != nil {
				return nil, err
			}
			send[side] = append(send[side], sb)
			recv[side] = append(recv[side], rb)
		}
	}
	w := &world{s: s, active: make([]bool, s.NumRanks())}
	w.active[pair[0]], w.active[pair[1]] = true, true
	w.body = func(c *dkf.RankCtx) error {
		side := 0
		if c.ID() == pair[1] {
			side = 1
		}
		peer := pair[1-side]
		reqs := make([]*dkf.Request, 0, 2*bulkBuffers)
		for i := 0; i < bulkBuffers; i++ {
			reqs = append(reqs, c.Irecv(peer, i, recv[side][i], l, 1))
		}
		for i := 0; i < bulkBuffers; i++ {
			reqs = append(reqs, c.Isend(peer, i, send[side][i], l, 1))
		}
		return c.Waitall(reqs)
	}
	// Filling a buffer from its stream costs more than the exchange itself,
	// so each parity's contents are filled once, in warm-up, and copied in
	// on later steps. The buffers are byte-exact, so the copy sets the same
	// bytes FillStream would.
	var images [2][][]byte
	w.refill = func(n int) {
		if img := images[n&1]; img != nil {
			for side := range pair {
				for i, b := range send[side] {
					copy(b.Data, img[side*bulkBuffers+i])
				}
			}
			return
		}
		for side, r := range pair {
			for i, b := range send[side] {
				b.FillStream(stream(seed, r, i, n))
				images[n&1] = append(images[n&1], slices.Clone(b.Data))
			}
		}
	}
	w.verify = func(int) error {
		for side := range pair {
			for i := range send[side] {
				if err := dkf.VerifyBlocks(l, 1, send[side][i].Data, recv[1-side][i].Data); err != nil {
					return fmt.Errorf("rank %d buffer %d: %w", pair[1-side], i, err)
				}
			}
		}
		return nil
	}
	return w, nil
}

// a2aLayout is one Alltoallw leg: 32 KiB in 64 strided blocks of 512 B.
func a2aLayout() *dkf.Layout {
	return dkf.Commit(dkf.Vector(64, 64, 128, dkf.Float64))
}

// a2aWorld builds a sparse personalized Alltoallw over lazy payloads: each
// rank exchanges one a2aLayout leg with each of its `peers` wrap-around
// neighbours, and every other leg of its world-sized op vector is empty.
func a2aWorld(seed uint64, cfg dkf.SessionConfig, nodes, peers int, mark func(string)) (*world, [][]dkf.WOp, error) {
	spec := dkf.SystemLassen.Spec().WithNodes(nodes)
	cfg.CustomSpec = &spec
	cfg.Payload = dkf.PayloadLazy
	// Polling every 5 µs instead of every 200 ns keeps the event count of a
	// many-rank world tractable without touching the µs-scale phases.
	cfg.PollInterval = 5000
	s, err := dkf.NewSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	mark("alloc")
	l := a2aLayout()
	n := s.NumRanks()
	ops := make([][]dkf.WOp, n)
	for r := 0; r < n; r++ {
		ops[r] = make([]dkf.WOp, n)
		for d := 1; d <= peers/2; d++ {
			for _, p := range [2]int{(r + d) % n, (r - d + n) % n} {
				if ops[r][p].SendBuf != nil {
					continue
				}
				sb, err := s.AllocE(r, fmt.Sprintf("send-%d", p), int(l.ExtentBytes))
				if err != nil {
					return nil, nil, err
				}
				rb, err := s.AllocE(r, fmt.Sprintf("recv-%d", p), int(l.ExtentBytes))
				if err != nil {
					return nil, nil, err
				}
				ops[r][p] = dkf.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
			}
		}
	}
	w := &world{s: s, active: make([]bool, n)}
	for r := range w.active {
		w.active[r] = true
	}
	w.body = func(c *dkf.RankCtx) error { return c.Alltoallw(ops[c.ID()]) }
	w.refill = func(step int) {
		for r := range ops {
			for p, op := range ops[r] {
				if op.SendBuf != nil {
					op.SendBuf.FillStream(stream(seed, r, p, step))
				}
			}
		}
	}
	var want legChecksums
	w.verify = func(n int) error { return want.verify(ops, l, n) }
	return w, ops, nil
}

// legChecksums holds, for each step parity, the checksum of every block of
// every leg as sent. Send contents repeat every other step, so each parity
// is hashed once, on the first step that uses it.
type legChecksums struct {
	sums [2][]uint64
}

// verify compares, block by block of the layout, the checksum of every leg
// received in step n with the checksum of the leg its peer sent.
func (lc *legChecksums) verify(ops [][]dkf.WOp, l *dkf.Layout, n int) error {
	want := lc.sums[n&1]
	fill := want == nil
	i := 0
	for r := range ops {
		for p, op := range ops[r] {
			if op.SendBuf == nil {
				continue
			}
			rb := ops[p][r].RecvBuf
			for _, blk := range l.Blocks {
				if fill {
					want = append(want, op.SendBuf.ChecksumRange(blk.Offset, blk.Len))
				}
				if rb.ChecksumRange(blk.Offset, blk.Len) != want[i] {
					return fmt.Errorf("leg %d->%d: block at offset %d differs", r, p, blk.Offset)
				}
				i++
			}
		}
	}
	lc.sums[n&1] = want
	return nil
}

// setupA2AOneSided is the put-based Alltoallw: 64 ranks on 16 nodes, 16
// peers per rank, one-sided backend with its persistent per-shape window.
func setupA2AOneSided(seed uint64, trace bool, mark func(string)) (*world, error) {
	w, _, err := a2aWorld(seed, dkf.SessionConfig{
		Backend: dkf.BackendRMA,
		Trace:   traceOpts(trace),
	}, 16, 16, mark)
	return w, err
}

// reliableNodes and reliablePeers size a2a-reliable-ckpt so a step takes
// tens of milliseconds of host time.
const (
	reliableNodes = 4
	reliablePeers = 8
)

// setupA2AReliable is the two-sided hierarchical Alltoallw of the same legs
// under the flaky-ib fault preset, seeded by the workload seed, which turns
// on the checksummed, acked and retransmitting transport. Every receive
// buffer is registered for the driver-side checkpoint taken after each
// step; the run ends by scribbling them, restoring the last checkpoint and
// verifying again.
func setupA2AReliable(seed uint64, trace bool, mark func(string)) (*world, error) {
	plan, err := dkf.FaultPreset("flaky-ib", seed)
	if err != nil {
		return nil, err
	}
	w, ops, err := a2aWorld(seed, dkf.SessionConfig{
		Faults: plan,
		Coll:   dkf.CollTuning{Alltoallw: dkf.CollHierarchical},
		Trace:  traceOpts(trace),
	}, reliableNodes, reliablePeers, mark)
	if err != nil {
		return nil, err
	}
	for r := range ops {
		var recv []*dkf.Buffer
		for _, op := range ops[r] {
			if op.RecvBuf != nil {
				recv = append(recv, op.RecvBuf)
			}
		}
		w.s.CheckpointRegister(r, recv...)
	}
	w.checkpoint = true
	w.finish = func(last int) error {
		for r := range ops {
			for p, op := range ops[r] {
				if op.RecvBuf != nil {
					op.RecvBuf.FillStream(^stream(seed, r, p, 0))
				}
			}
		}
		if err := w.verify(last); err == nil {
			return fmt.Errorf("scribbled receive buffers still verify")
		}
		if err := w.s.Restore(); err != nil {
			return err
		}
		if err := w.verify(last); err != nil {
			return fmt.Errorf("after Restore: %w", err)
		}
		return nil
	}
	return w, nil
}
