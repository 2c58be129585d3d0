package experiments

// Output parity with the commit before the run driver existed: the
// files under testdata/ were rendered by the hand-copied per-figure
// loops (this test, run with -update-parity at that commit), and every
// experiment must keep reproducing them byte for byte at any compute
// pool width. A deliberate change to a published number regenerates
// them with the same flag.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateParity = flag.Bool("update-parity", false, "rewrite internal/experiments/testdata from the current code")

func parityConfig(execWorkers int) Config {
	cfg := Default()
	cfg.Windows = 3
	cfg.RecordsPerWindow = 6000
	cfg.Seed = 42
	cfg.ExecWorkers = execWorkers
	return cfg
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update-parity.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverges from the recorded output\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestFigureParity(t *testing.T) {
	figures := []struct {
		name string
		run  func(Config) (*FigResult, error)
	}{
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"ablation-caching", AblationCaching},
		{"ablation-scheduling", AblationScheduling},
		{"ablation-speculation", AblationSpeculation},
		{"overlap-sweep", OverlapSweep},
		{"multi-query-sharing", MultiQuerySharing},
		{"cross-query-reuse", CrossQueryReuse},
	}
	for _, fig := range figures {
		for _, workers := range []int{1, 4} {
			res, err := fig.run(parityConfig(workers))
			if err != nil {
				t.Fatalf("%s at ExecWorkers=%d: %v", fig.name, workers, err)
			}
			var buf bytes.Buffer
			res.Format(&buf)
			if err := res.FormatCSV(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fig.name+".golden", buf.Bytes())
		}
	}
}

// TestReuseReportParity pins the per-query map-task, pane and savings
// accounting plus the output digests of the shared-stream reuse
// workload, index detached and attached.
func TestReuseReportParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		for _, enabled := range []bool{false, true} {
			rep, err := RunCrossQueryReuse(parityConfig(workers), enabled)
			if err != nil {
				t.Fatalf("reuse enabled=%v at ExecWorkers=%d: %v", enabled, workers, err)
			}
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
			buf.WriteByte('\n')
		}
		checkGolden(t, "reuse-report.golden", buf.Bytes())
	}
}
