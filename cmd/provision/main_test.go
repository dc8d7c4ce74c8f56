package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The synthetic suite at the default seed against its golden, byte for
// byte: traces, analyses and recommendations are all a function of the
// seed. Re-record with
// `go run ./cmd/provision > cmd/provision/testdata/suite.golden`.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/suite.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/suite.golden:\n%s", &stdout)
	}
}

// A trace file that does not exist is reported on stderr with exit 1; an
// unknown flag is a usage error, exit 2.
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
