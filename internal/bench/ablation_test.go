package bench

import (
	"strconv"
	"testing"
)

func TestA1MalleabilityAblation(t *testing.T) {
	tb, err := A1Malleability([]int{12, 24}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		protocolAlarms, _ := strconv.Atoi(r[1])
		naiveAlarms, _ := strconv.Atoi(r[3])
		if protocolAlarms != 0 {
			t.Errorf("n=%s: the Section IV protocol raised %d alarms", r[0], protocolAlarms)
		}
		if naiveAlarms == 0 {
			t.Errorf("n=%s: the naive switch raised no alarm — ablation vacuous", r[0])
		}
	}
}

func TestA2NCAEncodingAblation(t *testing.T) {
	tb, err := A2NCAEncoding([]int{64, 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		paper, _ := strconv.Atoi(r[1])
		naive, _ := strconv.Atoi(r[3])
		if naive <= paper {
			t.Errorf("n=%s: naive encoding (%d bits) not larger than paper's (%d bits)", r[0], naive, paper)
		}
	}
}

func TestA3SchedulerAblation(t *testing.T) {
	tb, err := A3Schedulers(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want one per registry daemon (7)", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[3] != "true" || r[4] != "true" {
			t.Errorf("scheduler %s: silent=%s exact=%s", r[0], r[3], r[4])
		}
	}
}

func TestA4FamilySweep(t *testing.T) {
	tb, err := A4Families(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[5] != "true" || r[6] != "true" {
			t.Errorf("family %s: silent=%s exact=%s", r[0], r[5], r[6])
		}
	}
}
