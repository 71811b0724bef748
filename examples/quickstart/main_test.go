package main

// Example runs the demo end to end; go test compares its stdout with the
// block below, so the walkthrough cannot drift from what the code does.
func Example() {
	main()
	// Output:
	// start: 25 of 25 nodes enabled (illegal configuration)
	// stabilized: silent=true rounds=8 moves=128 root=1 registers=20 bits
	// proof-labeling verifier: every node accepts
	//
	// corrupted registers at nodes [11 2 25]
	// recovered: silent=true extra-moves=29
	// silence re-established; registers fixed until the next fault
}
