package cluster

import "testing"

// TestChanDrainClearsInbox: a drained inbox keeps its array for the next
// burst but none of the frames in it.
func TestChanDrainClearsInbox(t *testing.T) {
	tr := NewChanTransport()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)
	for i := 0; i < 5; i++ {
		a.Send(2, []byte{byte(i)})
	}
	tr.Step(1)
	in := b.(*chanEndpoint)
	if got := b.Drain(nil); len(got) != 5 {
		t.Fatalf("drained %d frames, want 5", len(got))
	}
	for i, f := range in.in[:cap(in.in)] {
		if f != nil {
			t.Fatalf("inbox slot %d still holds a frame after Drain", i)
		}
	}
}
