package main

// Example runs the demo end to end; go test compares its stdout with the
// block below, so the walkthrough cannot drift from what the code does.
func Example() {
	main()
	// Output:
	// network: n=18 m=38; initial DFS routing tree height 17
	// repaired in 45 rounds (114 moves): height 11, exact BFS = true
	// spanning tree verified after every one of 114 steps — routing never broke
	// silent: true, registers: 21 bits
}
