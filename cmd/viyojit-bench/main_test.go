package main

import (
	"bytes"
	"os"
	"strconv"
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

// The figures that take no simulation against their goldens. Fig 1, §2.2
// and §8's availability are closed forms over constants; Figs 2–4 and the
// warm-up are functions of the default seed, Fig 5 of nothing; so a
// difference is a changed model. Each figure ends with a blank line, so
// the output is the golden plus one "\n". Re-record with
// `go run ./cmd/viyojit-bench -figures <list> | sed '$d' > cmd/viyojit-bench/testdata/<golden>.golden`.
func TestFiguresGolden(t *testing.T) {
	for _, tc := range []struct{ golden, figures string }{
		{"fig1_sizing_availability_warmup", "1,sizing,availability,warmup"},
		{"fig2_3_4", "2,3,4"},
		{"fig5", "5"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-figures", tc.figures}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, &stderr)
			}
			if !bytes.Equal(stdout.Bytes(), append(want, '\n')) {
				t.Errorf("output differs from testdata/%s.golden and a blank line:\n%s", tc.golden, &stdout)
			}
		})
	}
}

// A malformed seed or an unknown flag beside each group of the figures
// that take no simulation is a usage error, exit 2, with nothing printed.
func TestFiguresBadFlags(t *testing.T) {
	for _, tc := range []struct{ golden, figures string }{
		{"fig1_sizing_availability_warmup", "1,sizing,availability,warmup"},
		{"fig2_3_4", "2,3,4"},
		{"fig5", "5"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			for _, bad := range []struct {
				args []string
				want string
			}{
				{[]string{"-seed", "x"}, `invalid value "x" for flag -seed`},
				{[]string{"-no-such-flag"}, "flag provided but not defined"},
			} {
				args := append([]string{"-figures", tc.figures}, bad.args...)
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
					t.Errorf("%v: exit %d with %d bytes of output, want 2 and none", args, code, stdout.Len())
				}
				if !strings.Contains(stderr.String(), bad.want) {
					t.Errorf("%v: stderr %q lacks %q", args, &stderr, bad.want)
				}
			}
		})
	}
}

// -quick shortens the sweep, but an explicit -ops still sets its length:
// the quick Fig 7 at 2 000 operations is not the golden's 15 000-op one.
func TestQuickHonoursOps(t *testing.T) {
	golden, err := os.ReadFile("testdata/fig7_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-ops", "2000", "-figures", "7"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if bytes.Equal(stdout.Bytes(), golden) {
		t.Error("-quick -ops 2000 printed the 15 000-op sweep")
	}
}

// An explicit -ops sets the length of each overload run as it does the
// sweep's: every row's requests (done, shed or failed) add up to it.
func TestOverloadHonoursOps(t *testing.T) {
	const ops = 400
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figures", "overload", "-ops", strconv.Itoa(ops), "-offered-load", "1"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	rows := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 10 || (f[0] != "closed" && f[0] != "1.00x") {
			continue
		}
		rows++
		sum := 0
		for _, col := range f[3:8] {
			n, err := strconv.Atoi(col)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			sum += n
		}
		if sum != ops {
			t.Errorf("row %q accounts for %d requests, want %d", line, sum, ops)
		}
	}
	if rows != 2 {
		t.Fatalf("found %d rows, want the closed loop and 1.00x:\n%s", rows, &stdout)
	}
}

// A bad flag value is reported on stderr with exit 1 before anything
// runs or prints; an unknown or malformed flag is a usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-figures", "overload", "-offered-load", "0.5,-1"}, 1, `bad -offered-load entry "-1"`},
		{[]string{"-figures", "overload", "-offered-load", "NaN"}, 1, `bad -offered-load entry "NaN"`},
		{[]string{"-figures", "overload", "-offered-load", "+Inf"}, 1, `bad -offered-load entry "+Inf"`},
		{[]string{"-figures", "7,overload", "-offered-load", "x"}, 1, `bad -offered-load entry "x"`},
		{[]string{"-figures", "overload", "-clients", "-3"}, 1, "-clients -3 is negative"},
		{[]string{"-figures", "overload", "-deadline", "-1ms"}, 1, "-deadline -1ms is negative"},
		{[]string{"-ops", "0"}, 1, "-ops 0 is not positive"},
		{[]string{"-quick", "-ops", "-5"}, 1, "-ops -5 is not positive"},
		{[]string{"-figures", "11"}, 1, `unknown -figures name "11"`},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
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
