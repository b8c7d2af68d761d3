package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/workload"
)

// This file holds the compiled-pack-plan experiments added with the
// canonical datatype representation. Two tables:
//
//   - PackPlans measures *host* wall-time of the compiled plan against the
//     flatten-based block-list loop of Layout.Pack over the ddtbench
//     workload shapes. Virtual simulator time is invariant by design
//     (plans change how fast the host executes a pack, never what the
//     cost model charges), so the speedup here is real execution speed,
//     not simulated time.
//   - PlanCounters runs the bulk exchange per workload and reports the
//     canonical-cache "plan" counter row: hits, misses and plans compiled
//     by kind, so cache behavior is visible without a debugger.

// packBench times fn and returns ns/op: repetitions calibrated so one
// sample runs ~1ms, then min-of-7 samples so scheduler noise on a shared
// machine cannot invert a comparison.
func packBench(fn func()) int64 {
	fn() // warm caches, fault in pages
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if el := time.Since(start); el >= time.Millisecond {
			break
		} else if el <= 0 {
			reps *= 1000
		} else {
			f := int64(time.Millisecond) * int64(reps) / el.Nanoseconds()
			if f <= int64(reps) {
				f = int64(reps) * 2
			}
			reps = int(f) + 1
		}
	}
	best := int64(1<<63 - 1)
	for s := 0; s < 7; s++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if ns := time.Since(start).Nanoseconds() / int64(reps); ns < best {
			best = ns
		}
	}
	return best
}

// planDims picks the representative dims per workload for the plan tables:
// the middle and largest of the figure sweep.
func planDims(w workload.Workload) []int {
	d := w.Dims
	if len(d) <= 2 {
		return d
	}
	return []int{d[len(d)/2], d[len(d)-1]}
}

// PackPlans compares block-list packing (Layout.Pack) against the compiled
// per-canonical-form plan on every ddtbench workload shape (host ns/op).
func PackPlans() *Table {
	t := &Table{
		Title: "Compiled pack plans vs legacy block-list pack (host time, not simulated time)",
		Header: []string{"Workload", "Dim", "Bytes", "Blocks", "Kind", "Runs",
			"Legacy ns/op", "Plan ns/op", "Speedup"},
	}
	for _, w := range workload.All() {
		for _, dim := range planDims(w) {
			l := w.Layout(dim)
			c := l.CanonicalForm()
			p := datatype.CompilePlan(c)
			src := make([]byte, l.ExtentBytes)
			workload.FillPattern(src, uint64(dim))
			dst := make([]byte, l.SizeBytes)
			legacy := packBench(func() { l.Pack(src, dst) })
			plan := packBench(func() { p.Pack(src, dst) })
			t.Rows = append(t.Rows, []string{
				w.Name, fmt.Sprint(dim),
				fmt.Sprint(l.SizeBytes), fmt.Sprint(l.NumBlocks()),
				p.Kind.String(), fmt.Sprint(len(c.Runs)),
				fmt.Sprint(legacy), fmt.Sprint(plan),
				fmt.Sprintf("%.2fx", float64(legacy)/float64(plan)),
			})
		}
	}
	return t
}

// PlanCounters reports the canonical layout-cache counters ("plan" rows)
// observed during one bulk exchange per workload under the fused scheme.
func PlanCounters(spec cluster.Spec) *Table {
	t := &Table{
		Title: "plan counters: canonical layout-cache behavior per bulk exchange (Proposed-Tuned)",
		Header: []string{"Counter", "Workload", "Dim", "Hits", "Misses",
			"Contig", "Strided", "Gather"},
	}
	for _, w := range workload.All() {
		dim := planDims(w)[0]
		res := RunBulk(BulkOptions{System: spec, Scheme: "Proposed-Tuned", Workload: w, Dim: dim})
		if res.VerifyErr != nil {
			t.Rows = append(t.Rows, []string{"plan", w.Name, fmt.Sprint(dim),
				"ERR", res.VerifyErr.Error(), "", "", ""})
			continue
		}
		s := res.Plans
		t.Rows = append(t.Rows, []string{
			"plan", w.Name, fmt.Sprint(dim),
			fmt.Sprint(s.Hits), fmt.Sprint(s.Misses),
			fmt.Sprint(s.Compiled[datatype.PlanContig]),
			fmt.Sprint(s.Compiled[datatype.PlanStrided]),
			fmt.Sprint(s.Compiled[datatype.PlanGather]),
		})
	}
	return t
}

// Plans bundles both plan tables for the ddtbench -plans flag.
func Plans(spec cluster.Spec) []*Table {
	return []*Table{PackPlans(), PlanCounters(spec)}
}
