package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The trajectory and drain modes against their goldens, byte for byte:
// both run on the virtual clock from fixed seeds, so a difference is a
// changed model — a moved cost, a different retune or cleaning decision.
// Re-record with
// `go run ./cmd/health-sim -mode <name> > cmd/health-sim/testdata/<name>.golden`.
func TestGolden(t *testing.T) {
	for _, mode := range []string{"trajectory", "drain"} {
		t.Run(mode, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + mode + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-mode", mode}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, &stderr)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", mode, &stdout)
			}
		})
	}
}

// An unknown mode is reported on stderr with exit 1; an unknown flag is a
// usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-mode", "no-such-mode"}, 1, `unknown -mode "no-such-mode"`},
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
