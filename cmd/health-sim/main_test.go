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

// An unknown mode or an out-of-range value is reported on stderr with
// exit 1; an unknown flag is a usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-mode", "no-such-mode"}, 1, `unknown -mode "no-such-mode"`},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-age-frac", "NaN"}, 1, "battery: aging fraction NaN outside [0,1)"},
		{[]string{"-mode", "sensor", "-age-frac", "NaN"}, 1, "battery: aging fraction NaN outside [0,1)"},
		{[]string{"-age-steps", "0"}, 1, "-age-steps 0: want at least 1"},
		{[]string{"-age-steps", "-1"}, 1, "-age-steps -1: want at least 1"},
		{[]string{"-mode", "sensor", "-gauge-lie", "NaN"}, 1, "-gauge-lie NaN outside [0,1]"},
		{[]string{"-mode", "sensor", "-gauge-stuck", "2"}, 1, "-gauge-stuck 2 outside [0,1]"},
		{[]string{"-mode", "sensor", "-gauge-drift", "-0.5"}, 1, "-gauge-drift -0.5 outside [0,1]"},
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
