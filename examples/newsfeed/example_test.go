package main

// Example runs the program; its output is deterministic, so the run
// doubles as a golden test.
func Example() {
	main()
	// Output:
	// news feed digests: profile changes ⋈ connection activity, win=96h0m0s slide=24h0m0s
	//
	// window        redoop       hadoop   speedup  pairs new/old
	// 1           10.729ms     10.415ms      1.0x         16/0
	// 2            5.531ms     10.253ms      1.9x          7/9
	// 3            5.539ms      9.737ms      1.8x          7/9
	// 4            5.609ms      9.655ms      1.7x          7/9
	// 5            5.496ms      9.781ms      1.8x          7/9
	//
	// 35656 digest entries in the final window; a sample:
	//   m00000 → anniversary+viewed-by-c0075
	//   m00000 → anniversary+viewed-by-c0075
	//   m00000 → anniversary+viewed-by-c1296
	//   m00000 → anniversary+viewed-by-c1296
	//   m00000 → new-title+viewed-by-c0075
}
