package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The synthetic suite at the default seed and the re-provisioning
// trajectory against their goldens, byte for byte: traces, analyses and
// recommendations are all a function of the seed, and the trajectory is
// a closed form over constants. Re-record with
// `go run ./cmd/provision [flags] > cmd/provision/testdata/<name>.golden`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"suite", nil},
		{"trajectory", []string{"-age", "0.4", "-wear", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, &stderr)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", tc.golden, &stdout)
			}
		})
	}
}

// A trace file that does not exist or an advisor value outside its range
// is reported on stderr with exit 1; an unknown flag is a usage error,
// exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-file", "testdata/no-such-trace"}, 1, "provision: open testdata/no-such-trace"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-headroom", "NaN"}, 1, "advisor: headroom NaN is not a finite value ≥ 1"},
		{[]string{"-headroom", "0.5"}, 1, "advisor: headroom 0.5 is not a finite value ≥ 1"},
		{[]string{"-percentile", "NaN"}, 1, "advisor: percentile NaN outside (0,1]"},
		{[]string{"-percentile", "0"}, 1, "advisor: percentile 0 outside (0,1]"},
		{[]string{"-headroom", "0"}, 1, "advisor: headroom 0 is not a finite value ≥ 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, &stderr, tc.want)
		}
	}
}

// A trajectory flag outside its range is reported on stderr with exit 1
// before anything prints; an unknown flag beside them is a usage error,
// exit 2.
func TestTrajectoryBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-age", "1.5"}, 1, "provision: -age outside [0,1)"},
		{[]string{"-age", "-0.1"}, 1, "-age outside [0,1)"},
		{[]string{"-age", "0.2", "-derating", "-1"}, 1, "-derating must be finite and in (0,1]"},
		{[]string{"-derating", "NaN"}, 1, "-derating must be finite and in (0,1]"},
		{[]string{"-derating", "1.5"}, 1, "-derating must be finite and in (0,1]"},
		{[]string{"-wear", "-3"}, 1, "-wear must be finite and >= 0"},
		{[]string{"-wear", "+Inf"}, 1, "-wear must be finite and >= 0"},
		{[]string{"-dram", "0"}, 1, "-dram must be > 0"},
		{[]string{"-age", "0.2", "-bw", "-1"}, 1, "-bw must be > 0"},
		{[]string{"-age", "0.4", "-no-such-flag"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want %d and none", tc.args, code, stdout.Len(), tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, &stderr, tc.want)
		}
	}
}
