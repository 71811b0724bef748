package bench

import "testing"

// TestE13ClusterSmoke: the cluster scale table at a CI-friendly size.
func TestE13ClusterSmoke(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	tb, err := E13Cluster([]int{n}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows: %v", tb.Rows)
	}
	if tb.Rows[0][8] != "100.00%" {
		t.Fatalf("delivery column: %v", tb.Rows[0])
	}
}
