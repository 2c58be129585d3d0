package main

// Example runs the program; its output is deterministic, so the run
// doubles as a golden test.
func Example() {
	main()
	// Output:
	// recurring word count: win=30m0s slide=10m0s (overlap 67%), 5 windows
	//
	// window           redoop         hadoop    speedup  panes new/old
	// 1               2.398ms        2.221ms       0.9x          3/0
	// 2               1.087ms        2.221ms       2.0x          1/2
	// 3               1.087ms        2.221ms       2.0x          1/2
	// 4               1.087ms        2.221ms       2.0x          1/2
	// 5               1.087ms        2.221ms       2.0x          1/2
	//
	// final window's top words:
	//   alpha      14999
	//   bravo      15074
	//   charlie    15076
	//   delta      15005
	//   echo       15124
	//   foxtrot    14699
	//   golf       15088
	//   hotel      14893
	//   india      14944
	//   juliet     15098
}
