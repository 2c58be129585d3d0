package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: every rejected invocation exits 2 with a
// diagnostic on stderr and nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"unknown dataset", []string{"-dataset", "nope"}, `unknown dataset "nope"`},
		{"no records", []string{"-n", "0"}, "-n and -span must be positive"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestFiveRecordsGolden pins five records of each dataset and the
// summary line on stderr. testdata/<dataset>.golden is stdout followed
// by stderr of the binary before realMain existed.
func TestFiveRecordsGolden(t *testing.T) {
	for _, dataset := range []string{"wcc", "ffg-readings", "ffg-events"} {
		t.Run(dataset, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", dataset+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := realMain([]string{"-dataset", dataset, "-n", "5"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if got := stdout.String() + stderr.String(); got != string(want) {
				t.Errorf("output diverges from testdata/%s.golden\n--- got ---\n%s\n--- want ---\n%s", dataset, got, want)
			}
			// -o writes the same records to a file, and stdout stays empty.
			path := filepath.Join(t.TempDir(), "out.csv")
			var none bytes.Buffer
			if code := realMain([]string{"-dataset", dataset, "-n", "5", "-o", path}, &none, &bytes.Buffer{}); code != 0 {
				t.Fatalf("-o: exit code %d", code)
			}
			if file, err := os.ReadFile(path); err != nil || string(file) != stdout.String() || none.Len() != 0 {
				t.Errorf("-o wrote %q (%v) and %q to stdout, want %q and nothing", file, err, none.String(), stdout.String())
			}
		})
	}
}

// TestFullDiskExits1: a write the device refuses is an error, not a
// truncated file and exit 0.
func TestFullDiskExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-n", "5", "-o", "/dev/full"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no space left on device") {
		t.Errorf("stderr %q does not report the failed write", stderr.String())
	}
}
