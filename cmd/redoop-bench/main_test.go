package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSummaryIdenticalAcrossWorkers runs a small Figure 6 with every
// summary block attached on a serial and a 4-wide compute pool: the
// two -json-out files must be the same bytes, which is what lets CI
// compare bench-trajectory/FIGS.json at either width.
func TestSummaryIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "w"+workers+".json")
		var stdout, stderr bytes.Buffer
		args := []string{"-fig", "6", "-windows", "2", "-records", "6000", "-reuse", "-q",
			"-workers", workers, "-json-out", path}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("summaries differ between -workers 1 and 4:\n%s\n---\n%s", files[0], files[1])
	}
	var blocks map[string]json.RawMessage
	if err := json.Unmarshal(files[0], &blocks); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"config", "figures", "metrics", "health", "profile", "costs", "lineage", "reuse"} {
		if len(blocks[b]) == 0 || string(blocks[b]) == "null" {
			t.Errorf("summary lacks the %q block", b)
		}
	}
	var sum summaryJSON
	if err := json.Unmarshal(files[0], &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Costs == nil || !sum.Costs.ConservationOK {
		t.Errorf("cost ledger conservation not OK: %+v", sum.Costs)
	}
}

// TestUnknownFigureExit2: an unknown -fig exits 2 before any run, and
// its diagnostic names every figure the table holds.
func TestUnknownFigureExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-fig", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown figure "nope"`) {
		t.Errorf("stderr %q lacks the unknown figure", stderr.String())
	}
	for _, f := range figures {
		if !strings.Contains(stderr.String(), f.id) {
			t.Errorf("stderr %q does not name figure %s", stderr.String(), f.id)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", stdout.String())
	}
}

// TestParBenchKeepsSummaryVirtual: -par-bench's extra runs stay out of
// the shared ledger and provenance store, so apart from its wall-clock
// block the summary equals a plain run's and conservation holds.
func TestParBenchKeepsSummaryVirtual(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, extra ...string) summaryJSON {
		path := filepath.Join(dir, name)
		args := append([]string{"-fig", "6", "-windows", "2", "-records", "6000", "-q", "-json-out", path}, extra...)
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, stderr.String())
		}
		if strings.Contains(stderr.String(), "VIOLATED") {
			t.Errorf("%v: %s", extra, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum summaryJSON
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	plain, par := read("plain.json"), read("par.json", "-par-bench", "2")
	if par.Parallel == nil {
		t.Fatal("-par-bench wrote no parallel block")
	}
	par.Parallel, par.Profile.SerialFraction = nil, nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(par)
	if !bytes.Equal(a, b) {
		t.Errorf("-par-bench changed the virtual summary:\n%s\n---\n%s", a, b)
	}
}
