package main

// Example runs the program; its output is deterministic, so the run
// doubles as a golden test.
func Example() {
	main()
	// Output:
	// sensor fusion: positions(3m0s) ⋈ ball(2m0s) ⋈ referee(6m0s), every 1m0s
	//
	// window      response     fused  panes new/old tuples new/old cached bytes
	// 1           61.138ms    401133         11/0            36/0         4255580
	// 2            71.98ms    422158          3/8            26/10        4153796
	// 3           53.259ms    417795          3/8            26/10        4179273
	// 4           43.291ms    407634          3/8            26/10        4041587
	// 5           56.594ms    395490          3/8            26/10        3979108
	// 6           49.939ms    405191          3/8            26/10        4010882
	//
	// a sample of the final window's fused events:
	//   p00 → 0.3;47.3+touch@0+card
	//   p00 → 0.3;47.3+touch@0+foul
	//   p00 → 0.3;47.3+touch@0+offside
}
