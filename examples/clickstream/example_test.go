package main

// Example runs the program; its output is deterministic, so the run
// doubles as a golden test.
func Example() {
	main()
	// Output:
	// clickstream CTR model: win=1h0m0s slide=10m0s, traffic doubles during windows 3-6
	//
	// window        response  proactive  subpanes   forecast     deadline
	// 1                12m6s      false         1         0s        10m0s
	// 2                6m43s      false         1         0s        10m0s
	// 3                6m44s      false         1      6m45s        10m0s
	// 4                 9m9s      false         1      8m20s        10m0s
	// 5                7m17s       true         2       8m1s        10m0s
	// 6                7m18s       true         2      7m47s        10m0s
	// 7                7m16s       true         2      7m33s        10m0s
	// 8                 6m3s       true         2      6m36s        10m0s
	// 9                 6m1s       true         2       6m2s        10m0s
	//
	// updated model, highest-CTR pairs:
	//   pub22,adv02    ctr=10.435% over 115 impressions
	//   pub08,adv12    ctr=9.910% over 111 impressions
	//   pub07,adv11    ctr=8.333% over 120 impressions
	//   pub17,adv10    ctr=8.182% over 110 impressions
	//   pub13,adv13    ctr=8.130% over 123 impressions
}
