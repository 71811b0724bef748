package main

// Example runs the demo end to end; go test compares its stdout with the
// block below, so the walkthrough cannot drift from what the code does.
func Example() {
	main()
	// Output:
	// sensor network: n=300 m=1560
	//
	// stabilized BFS substrate: height 13, max degree 10
	// steady-state traffic: sent=256 delivered=256 (100.00%) dropped=0 looped=0 mean-hops=9.02 mean-stretch=1.361 (over 256 sampled)
	//
	// >>> corrupting 6 registers under 128 in-flight packets <<<
	// reconvergence: 2004 moves over 39 windows
	// in-flight fate: 124 delivered during repair, 4 after, 0 looped, 0 dropped, 283 stalled windows
	//
	// recovered traffic: sent=256 delivered=256 (100.00%) dropped=0 looped=0 mean-hops=9.05 mean-stretch=1.372 (over 256 sampled)
	// service restored: 100% delivery over the repaired tree
}
