package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The quick Fig 7 sweep against its golden, byte for byte: the runs are
// virtual-time and seeded, so a difference is a changed model — a moved
// cost, a changed access sequence, a different cleaning decision.
// Re-record with
// `go run ./cmd/viyojit-bench -quick -figures 7 > cmd/viyojit-bench/testdata/fig7_quick.golden`.
func TestFig7QuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig7_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-figures", "7"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/fig7_quick.golden:\n%s", &stdout)
	}
}

// A bad flag value is reported on stderr with exit 1; an unknown flag is
// a usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-figures", "overload", "-offered-load", "0.5,-1"}, 1, `bad -offered-load entry "-1"`},
		{[]string{"-figures", "overload", "-offered-load", "NaN"}, 1, `bad -offered-load entry "NaN"`},
		{[]string{"-figures", "overload", "-offered-load", "+Inf"}, 1, `bad -offered-load entry "+Inf"`},
		{[]string{"-figures", "overload", "-clients", "-3"}, 1, "-clients -3 is negative"},
		{[]string{"-figures", "overload", "-deadline", "-1ms"}, 1, "-deadline -1ms is negative"},
		{[]string{"-figures", "11"}, 1, `unknown -figures name "11"`},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
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
