package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fusion"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds the ablation experiments called out in DESIGN.md §4:
// each isolates one design decision of the fusion framework and compares
// the chosen design against its alternative.

// boundarySyncFusion wraps the fusion scheme but waits for the whole fused
// kernel at every flush — reintroducing the kernel-boundary synchronization
// the paper's response-status protocol eliminates (step ③ of Fig. 5).
type boundarySyncFusion struct {
	inner *schemes.Fusion
}

func newBoundarySyncFusion(r *mpi.Rank) mpi.Scheme {
	return &boundarySyncFusion{inner: schemes.NewFusion(r).(*schemes.Fusion)}
}

func (s *boundarySyncFusion) Name() string { return "Fusion+BoundarySync" }

func (s *boundarySyncFusion) Pack(p *sim.Proc, job *pack.Job) mpi.Handle {
	return s.inner.Pack(p, job)
}

func (s *boundarySyncFusion) Unpack(p *sim.Proc, job *pack.Job) mpi.Handle {
	return s.inner.Unpack(p, job)
}

func (s *boundarySyncFusion) DirectIPC(p *sim.Proc, job *pack.Job) (mpi.Handle, bool) {
	return s.inner.DirectIPC(p, job)
}

// Flush launches pending work and then blocks until the whole fused stream
// drains — an explicit CPU-GPU synchronization at the kernel boundary.
func (s *boundarySyncFusion) Flush(p *sim.Proc) {
	s.inner.Flush(p)
	s.inner.SyncStream(p)
}

// AblationSyncVsStatusPoll compares the paper's GPU-written response-status
// completion (no kernel-boundary sync) against an explicit synchronize
// after every fused launch.
func AblationSyncVsStatusPoll() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: response-status polling vs kernel-boundary sync (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"variant", "latency_us"},
	}
	base := RunBulk(BulkOptions{System: cluster.Lassen(), Scheme: "Proposed-Tuned", Workload: wl, Dim: 32, Buffers: 16})
	t.Rows = append(t.Rows, []string{"status-poll (paper)", cell(base)})

	env := BulkOptions{System: cluster.Lassen(), Scheme: "Proposed-Tuned", Workload: wl, Dim: 32, Buffers: 16}
	env.defaults()
	r := runBulkWithFactory(env, newBoundarySyncFusion)
	t.Rows = append(t.Rows, []string{"boundary-sync", cell(r)})
	return t
}

// AblationFlushPolicy sweeps the flush policy: fuse-nothing (launch every
// request alone), the tuned byte threshold, and fuse-everything (only the
// Waitall flush launches).
func AblationFlushPolicy() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: flush policy (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"policy", "latency_us"},
	}
	cases := []struct {
		name      string
		threshold int64
	}{
		{"fuse-nothing (thr=1B)", 1},
		{"tuned (thr=512KB)", 512 << 10},
		{"fuse-everything (thr=inf)", 1 << 50},
	}
	for _, c := range cases {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed", Workload: wl,
			Dim: 32, Buffers: 16, FusionThreshold: c.threshold,
		})
		t.Rows = append(t.Rows, []string{c.name, cell(r)})
	}
	return t
}

// AblationPartitioning compares work-proportional cooperative-group
// partitioning against a naive uniform split. The experiment fuses a
// heterogeneous batch — many tiny sparse packs plus a few fat dense packs
// — directly on the fusion scheduler: a uniform split hands the fat
// requests the same number of thread blocks as the tiny ones and stretches
// the kernel span (the Partition phase of paper Fig. 6 exists precisely to
// avoid this).
func AblationPartitioning() *Table {
	t := &Table{
		Title:  "Ablation: cooperative-group partitioning (15 trivial + 1 huge sparse request fused, Lassen, us)",
		Header: []string{"partitioning", "fused_span_us"},
	}
	huge := workload.Specfem3DCM().Layout(64) // ~12k tiny blocks
	for _, uniform := range []bool{false, true} {
		arch := cluster.VoltaV100NVLink()
		arch.UniformFusedPartition = uniform
		env := sim.NewEnv()
		dev := gpu.NewDevice(env, arch, 0, 0)
		sched := fusion.NewScheduler(dev, dev.NewStream("f"), fusion.Config{ThresholdBytes: 1 << 50})
		var span int64
		env.Spawn("pe", func(p *sim.Proc) {
			var uids []int64
			// Cost-only requests: the aggregates drive the kernel model
			// and the empty plan moves no bytes.
			empty := datatype.CompilePlan(datatype.Canonicalize(nil, 0))
			enq := func(bytes int64, segs int, max int64) {
				src := dev.Alloc(fmt.Sprintf("s%d", len(uids)), 1)
				dst := dev.Alloc(fmt.Sprintf("d%d", len(uids)), 1)
				j := &pack.Job{Op: pack.OpPack, Origin: src, Target: dst, Plan: empty, Bytes: bytes, Segments: segs, MaxBlock: max}
				uids = append(uids, sched.Enqueue(p, j))
			}
			for i := 0; i < 15; i++ {
				enq(4<<10, 4, 1<<10) // trivial dense requests
			}
			enq(huge.SizeBytes, huge.NumBlocks(), huge.MaxBlockBytes)
			start := p.Now()
			sched.Flush(p)
			for _, u := range uids {
				if ev := sched.DoneEvent(u); ev != nil {
					p.Wait(ev)
				}
				sched.Release(u)
			}
			span = p.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Rows = append(t.Rows, []string{"error", err.Error()})
			continue
		}
		name := "work-proportional (paper)"
		if uniform {
			name = "uniform split"
		}
		t.Rows = append(t.Rows, []string{name, fmtUs(span)})
	}
	return t
}

// AblationRendezvous compares RGET (RTS after packing) against RPUT (RTS
// overlaps packing) for a large dense workload — Section IV-B1.
func AblationRendezvous() *Table {
	t := &Table{
		Title:  "Ablation: rendezvous protocol (NAS_MG dim=128, 8 buffers, Lassen, us)",
		Header: []string{"protocol", "latency_us"},
	}
	for _, mode := range []mpi.RendezvousMode{mpi.RGET, mpi.RPUT} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: workload.NASMG(), Dim: 128, Buffers: 8,
			MutateMPI: mutRendezvous(mode),
		})
		t.Rows = append(t.Rows, []string{mode.String(), cell(r)})
	}
	return t
}

// AblationLayoutCache compares the cached datatype layouts of [24] against
// re-flattening on every message.
func AblationLayoutCache() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: layout cache (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"variant", "latency_us"},
	}
	for _, disabled := range []bool{false, true} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: wl, Dim: 32, Buffers: 16,
			MutateMPI: func(c *mpi.Config) { c.DisableLayoutCache = disabled },
		})
		name := "cached (paper)"
		if disabled {
			name = "flatten every message"
		}
		t.Rows = append(t.Rows, []string{name, cell(r)})
	}
	return t
}

// Ablations runs every ablation experiment.
func Ablations() []*Table {
	return []*Table{
		AblationSyncVsStatusPoll(),
		AblationFlushPolicy(),
		AblationPartitioning(),
		AblationRendezvous(),
		AblationLayoutCache(),
		AblationPipeline(),
	}
}

// runBulkWithFactory is RunBulk with a custom scheme factory (ablation
// variants that are not in the schemes registry).
func runBulkWithFactory(opt BulkOptions, factory mpi.SchemeFactory) BulkResult {
	opt.defaults()
	env := sim.NewEnv()
	cl := cluster.MustBuild(env, opt.System)
	cfg := mpi.DefaultConfig()
	if opt.MutateMPI != nil {
		opt.MutateMPI(&cfg)
	}
	w := mpi.NewWorld(cl, cfg, factory)
	l := opt.Workload.Layout(opt.Dim)
	a, bPeer := 0, opt.System.GPUsPerNode
	res := BulkResult{Scheme: "custom", MsgBytes: l.SizeBytes, Blocks: l.NumBlocks()}
	sb := make([]*bufPair, opt.Buffers)
	for i := range sb {
		sb[i] = &bufPair{
			as: w.Rank(a).Dev.Alloc(fmt.Sprintf("as%d", i), int(l.ExtentBytes)),
			ar: w.Rank(a).Dev.Alloc(fmt.Sprintf("ar%d", i), int(l.ExtentBytes)),
			bs: w.Rank(bPeer).Dev.Alloc(fmt.Sprintf("bs%d", i), int(l.ExtentBytes)),
			br: w.Rank(bPeer).Dev.Alloc(fmt.Sprintf("br%d", i), int(l.ExtentBytes)),
		}
		workload.FillPattern(sb[i].as.Data, uint64(i+1))
		workload.FillPattern(sb[i].bs.Data, uint64(i+1001))
	}
	var total int64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		mine := r.ID() == a || r.ID() == bPeer
		for it := 0; it < opt.Warmup+opt.Iterations; it++ {
			w.Barrier(p)
			t0 := p.Now()
			if mine {
				var reqs []*mpi.Request
				for i := 0; i < opt.Buffers; i++ {
					if r.ID() == a {
						reqs = append(reqs, r.Irecv(p, bPeer, i, sb[i].ar, l, 1))
					} else {
						reqs = append(reqs, r.Irecv(p, a, i, sb[i].br, l, 1))
					}
				}
				for i := 0; i < opt.Buffers; i++ {
					if r.ID() == a {
						reqs = append(reqs, r.Isend(p, bPeer, i, sb[i].as, l, 1))
					} else {
						reqs = append(reqs, r.Isend(p, a, i, sb[i].bs, l, 1))
					}
				}
				r.Waitall(p, reqs)
			}
			w.Barrier(p)
			if r.ID() == a && it >= opt.Warmup {
				total += p.Now() - t0
			}
		}
	})
	if err != nil {
		res.VerifyErr = err
		return res
	}
	res.AvgNs = total / int64(opt.Iterations)
	for i := range sb {
		if err := workload.VerifyBlocks(l, 1, sb[i].as.Data, sb[i].br.Data); err != nil {
			res.VerifyErr = err
			return res
		}
		if err := workload.VerifyBlocks(l, 1, sb[i].bs.Data, sb[i].ar.Data); err != nil {
			res.VerifyErr = err
			return res
		}
	}
	return res
}

type bufPair struct{ as, ar, bs, br *gpu.Buffer }

// AblationPipeline measures chunked (pipelined) rendezvous against the
// whole-message path for a large sparse exchange. On the modeled systems
// this is a negative result worth recording: V100-class packing is far
// faster than the EDR wire, so overlapping pack chunks with transfers buys
// almost nothing while the per-chunk control traffic costs a few percent —
// the economics behind the paper's choice to fuse packs rather than
// pipeline them.
func AblationPipeline() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: chunked pipelined rendezvous (specfem3D_cm dim=64, 8 buffers, Lassen, us)",
		Header: []string{"rendezvous", "latency_us"},
	}
	for _, chunk := range []int64{0, 32 << 10} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: wl, Dim: 64, Buffers: 8,
			MutateMPI: func(c *mpi.Config) { c.PipelineChunkBytes = chunk },
		})
		name := "whole-message (paper)"
		if chunk > 0 {
			name = "chunked 32KB"
		}
		t.Rows = append(t.Rows, []string{name, cell(r)})
	}
	return t
}
