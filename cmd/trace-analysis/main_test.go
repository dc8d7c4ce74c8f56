package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Figures 2–4 at the default seed against their golden, byte for byte.
// Re-record with
// `go run ./cmd/trace-analysis > cmd/trace-analysis/testdata/default.golden`.
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

// An unknown flag or a malformed seed is a usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-seed", "x"}, `invalid value "x" for flag -seed`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want 2 and none", tc.args, code, stdout.Len())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, &stderr, tc.want)
		}
	}
}
