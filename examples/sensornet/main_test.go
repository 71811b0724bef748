package main

// Example runs the demo end to end; go test compares its stdout with the
// block below, so the walkthrough cannot drift from what the code does.
func Example() {
	main()
	// Output:
	// radio network: 24 sensors, 71 links, max radio degree 10
	// naive BFS gathering tree: degree 5
	// MDST engine: degree 3, FR-certified=true, 1936 rounds, 8 improvements
	// certificate: 16 bits/sensor (vs 135 bits/sensor for the Ω(n log n) baseline — 8x smaller)
	// sensor 9 died: re-stabilized over 23 survivors in 10 rounds, gathering degree 3
}
