package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file reproduces the paper's Section III analysis: the three ways an
// application can move bulk non-contiguous GPU data with MPI (Fig. 4 and
// Algorithms 1-3), measured head to head.
//
//	Algorithm 1 — MPI-level explicit: blocking MPI_Pack / MPI_Unpack
//	              around contiguous sends; every pack synchronizes.
//	Algorithm 2 — application-level explicit: the app launches its own
//	              pack/unpack kernels with one synchronization per phase,
//	              then sends contiguous buffers.
//	Algorithm 3 — MPI-level implicit: non-contiguous buffers passed
//	              straight to Isend/Irecv; the runtime's DDT scheme
//	              (including the proposed fusion) handles packing.
type approachFn func(w *mpi.World, l *datatype.Layout, nbuf, it int, sb, rb []*gpu.Buffer, r *mpi.Rank, p *sim.Proc, peer int, sender bool)

// Algorithm 1: MPI-level explicit pack/unpack.
func algorithm1(w *mpi.World, l *datatype.Layout, nbuf, it int, sb, rb []*gpu.Buffer, r *mpi.Rank, p *sim.Proc, peer int, sender bool) {
	packedType := datatype.Commit(datatype.Contiguous(int(l.SizeBytes), datatype.Byte))
	var reqs []*mpi.Request
	if sender {
		for i := 0; i < nbuf; i++ {
			staging := r.Dev.Alloc(fmt.Sprintf("alg1-s%d-%d", it, i), int(l.SizeBytes))
			var pos int64
			r.Pack(p, sb[i], l, 1, staging, &pos) // blocking (red line in Fig. 4a)
			reqs = append(reqs, r.Isend(p, peer, i, staging, packedType, 1))
		}
		r.Waitall(p, reqs)
		return
	}
	stagings := make([]*gpu.Buffer, nbuf)
	for i := 0; i < nbuf; i++ {
		stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg1-r%d-%d", it, i), int(l.SizeBytes))
		reqs = append(reqs, r.Irecv(p, peer, i, stagings[i], packedType, 1))
	}
	r.Waitall(p, reqs)
	for i := 0; i < nbuf; i++ {
		var pos int64
		r.Unpack(p, stagings[i], &pos, rb[i], l, 1) // blocking
	}
}

// Algorithm 2: application-level explicit pack/unpack — custom kernels,
// one synchronization per phase, no overlap with communication.
func algorithm2(w *mpi.World, l *datatype.Layout, nbuf, it int, sb, rb []*gpu.Buffer, r *mpi.Rank, p *sim.Proc, peer int, sender bool) {
	packedType := datatype.Commit(datatype.Contiguous(int(l.SizeBytes), datatype.Byte))
	st := r.Dev.NewStream("app-pack")
	e := r.LayoutEntry(l, 1) // custom kernels: no MPI lookup is charged
	var reqs []*mpi.Request
	if sender {
		stagings := make([]*gpu.Buffer, nbuf)
		for i := 0; i < nbuf; i++ {
			stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg2-s%d-%d", it, i), int(l.SizeBytes))
			job := pack.NewJob(pack.OpPack, sb[i], stagings[i], e)
			st.Launch(p, job.KernelSpec())
		}
		st.Synchronize(p) // single sync at the kernel boundary (Alg. 2 line 6)
		for i := 0; i < nbuf; i++ {
			reqs = append(reqs, r.Isend(p, peer, i, stagings[i], packedType, 1))
		}
		r.Waitall(p, reqs)
		return
	}
	stagings := make([]*gpu.Buffer, nbuf)
	for i := 0; i < nbuf; i++ {
		stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg2-r%d-%d", it, i), int(l.SizeBytes))
		reqs = append(reqs, r.Irecv(p, peer, i, stagings[i], packedType, 1))
	}
	r.Waitall(p, reqs)
	for i := 0; i < nbuf; i++ {
		job := pack.NewJob(pack.OpUnpack, stagings[i], rb[i], e)
		st.Launch(p, job.KernelSpec())
	}
	st.Synchronize(p) // Alg. 2 line 17
}

// Algorithm 3: MPI-level implicit — the 10-line productive version.
func algorithm3(w *mpi.World, l *datatype.Layout, nbuf, it int, sb, rb []*gpu.Buffer, r *mpi.Rank, p *sim.Proc, peer int, sender bool) {
	var reqs []*mpi.Request
	if sender {
		for i := 0; i < nbuf; i++ {
			reqs = append(reqs, r.Isend(p, peer, i, sb[i], l, 1))
		}
	} else {
		for i := 0; i < nbuf; i++ {
			reqs = append(reqs, r.Irecv(p, peer, i, rb[i], l, 1))
		}
	}
	r.Waitall(p, reqs)
}

// runApproach measures one approach under one underlying scheme.
func runApproach(system cluster.Spec, scheme string, wl workload.Workload, dim, nbuf int, fn approachFn) BulkResult {
	const warmup, iters = 2, 3
	env := sim.NewEnv()
	cl := cluster.MustBuild(env, system)
	w := mpi.NewWorld(cl, mpi.DefaultConfig(), schemes.Factory(scheme))
	l := wl.Layout(dim)
	a, bPeer := 0, system.GPUsPerNode
	sb := make([]*gpu.Buffer, nbuf)
	rb := make([]*gpu.Buffer, nbuf)
	for i := range sb {
		sb[i] = w.Rank(a).Dev.Alloc(fmt.Sprintf("s%d", i), int(l.ExtentBytes))
		rb[i] = w.Rank(bPeer).Dev.Alloc(fmt.Sprintf("r%d", i), int(l.ExtentBytes))
		workload.FillPattern(sb[i].Data, uint64(i+1))
	}
	res := BulkResult{Scheme: scheme, MsgBytes: l.SizeBytes, Blocks: l.NumBlocks()}
	var total int64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for it := 0; it < warmup+iters; it++ {
			w.Barrier(p)
			t0 := p.Now()
			switch r.ID() {
			case a:
				fn(w, l, nbuf, it, sb, rb, r, p, bPeer, true)
			case bPeer:
				fn(w, l, nbuf, it, sb, rb, r, p, a, false)
			}
			w.Barrier(p)
			if r.ID() == a && it >= warmup {
				total += p.Now() - t0
			}
		}
	})
	if err != nil {
		res.VerifyErr = err
		return res
	}
	res.AvgNs = total / iters
	for i := range sb {
		if err := workload.VerifyBlocks(l, 1, sb[i].Data, rb[i].Data); err != nil {
			res.VerifyErr = fmt.Errorf("buffer %d: %w", i, err)
			return res
		}
	}
	return res
}

// Approaches compares the three Section III approaches on a sparse
// workload: explicit MPI pack (Alg. 1), application-level kernels (Alg. 2),
// and implicit DDT under both a legacy scheme and the proposed fusion.
func Approaches(system cluster.Spec) *Table {
	wl := workload.Specfem3DCM()
	const dim, nbuf = 32, 16
	t := &Table{
		Title: fmt.Sprintf("Section III approaches: %s dim=%d, %d buffers, %s (us, lower is better)",
			wl.Name, dim, nbuf, system.Name),
		Header: []string{"approach", "ddt_scheme", "latency_us"},
	}
	rows := []struct {
		name   string
		scheme string
		fn     approachFn
	}{
		{"Alg1 MPI explicit pack", "GPU-Sync", algorithm1},
		{"Alg2 app-level kernels", "GPU-Sync", algorithm2},
		{"Alg3 implicit (GPU-Sync)", "GPU-Sync", algorithm3},
		{"Alg3 implicit (Proposed)", "Proposed-Tuned", algorithm3},
	}
	for _, row := range rows {
		r := runApproach(system, row.scheme, wl, dim, nbuf, row.fn)
		t.Rows = append(t.Rows, []string{row.name, row.scheme, cell(r)})
	}
	return t
}
