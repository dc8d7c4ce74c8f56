package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The synthetic volume at the default seed and budget against its
// golden, byte for byte. The run drives core.Manager through victim
// selection at 4 KiB pages and at 256 B sectors, so any change to which
// victims are cleaned, or when, shows here. Re-record with
// `go run ./cmd/replay > cmd/replay/testdata/default.golden`.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/default.golden:\n%s", &stdout)
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
		{[]string{"-file", "testdata/no-such-trace"}, 1, "replay: open testdata/no-such-trace"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-budget-frac", "NaN"}, 1, "replay: -budget-frac NaN outside (0,1]"},
		{[]string{"-budget-frac", "-1"}, 1, "replay: -budget-frac -1 outside (0,1]"},
		{[]string{"-budget-frac", "0"}, 1, "replay: -budget-frac 0 outside (0,1]"},
		{[]string{"-budget-frac", "2"}, 1, "replay: -budget-frac 2 outside (0,1]"},
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
