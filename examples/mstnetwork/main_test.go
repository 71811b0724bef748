package main

// Example runs the demo end to end; go test compares its stdout with the
// block below, so the walkthrough cannot drift from what the code does.
func Example() {
	main()
	// Output:
	// backbone: 18 sites, 44 links
	// converged in 1100 rounds (11 improvements): exact MST = true, total cost = 722230
	// register sizes: substrate 21 bits, Borůvka-trace labels 102 bits
	// potential trajectory (strictly decreasing): [275 238 216 208 167 137 99 79 46 37 27 0]
	// MST certificate verified at every site (k = 3 Borůvka levels)
	// baseline (non-silent Borůvka): 16 rounds, 35-bit registers, no local certificate
}
