package bench

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func TestPackPlansTable(t *testing.T) {
	tab := PackPlans()
	var want int
	for _, w := range workload.All() {
		want += len(planDims(w))
	}
	if len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
		}
		// Host timings are noisy; assert sanity, not speed: both arms
		// measured something positive.
		for _, col := range []int{6, 7} {
			ns, err := strconv.ParseInt(row[col], 10, 64)
			if err != nil || ns <= 0 {
				t.Errorf("row %v: column %d is not a positive timing", row, col)
			}
		}
	}
}

func TestPlanCountersTable(t *testing.T) {
	tab := PlanCounters(cluster.Lassen())
	if len(tab.Rows) != len(workload.All()) {
		t.Fatalf("rows = %d, want one per workload", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] != "plan" {
			t.Fatalf("counter row label = %q, want \"plan\"", row[0])
		}
		if row[3] == "ERR" || row[4] == "ERR" {
			t.Fatalf("row %v reports an exchange error", row)
		}
		hits, _ := strconv.ParseInt(row[3], 10, 64)
		misses, _ := strconv.ParseInt(row[4], 10, 64)
		if hits == 0 || misses == 0 {
			t.Errorf("row %v: warm exchange should report hits and misses", row)
		}
		var compiled int64
		for _, col := range []int{5, 6, 7} {
			n, _ := strconv.ParseInt(row[col], 10, 64)
			compiled += n
		}
		if compiled == 0 {
			t.Errorf("row %v: no plans compiled", row)
		}
	}
}
