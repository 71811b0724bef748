package bench

import "testing"

func TestA5ShortcutTable(t *testing.T) {
	tb, err := A5Shortcut([]int{64}, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(tb.Rows))
	}
}
