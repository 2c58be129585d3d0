package main

// Example runs the program; its output is deterministic, so the run
// doubles as a golden test.
func Example() {
	main()
	// Output:
	// log processing: requests per country, win=6h0m0s slide=1h0m0s (overlap 83%)
	//
	// window        redoop       hadoop   speedup    DFS bytes (R)    DFS bytes (H)
	// 1            7.309ms     11.527ms      1.6x          7315945          7315945
	// 2            3.184ms     11.564ms      3.6x          1219517          7316067
	// 3            3.208ms     11.526ms      3.6x          1219414          7316121
	// 4            3.197ms     11.543ms      3.6x          1219487          7316207
	// 5            3.199ms      11.55ms      3.6x          1219681          7316734
	// 6            3.153ms     11.535ms      3.7x          1219414          7316775
	//
	// last window, busiest countries:
	//   BR  9186 requests
	//   ID  9161 requests
	//   TR  9146 requests
	//
	// window 6 output committed at /redoop/geo-traffic/out/r000005
	// window 6 inputs: 5 pane files
}
