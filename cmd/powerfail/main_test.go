package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Each sweep mode at eight crash points: exit 0, nothing on stderr, the
// shared evidence lines, and the mode's closing line saying what held.
func TestSweepModes(t *testing.T) {
	for _, tc := range []struct{ flag, held string }{
		{"-serve-sweep", "exactly-once held at every crash point"},
		{"-nested-sweep", "held at every crash depth"},
		{"-sensor-sweep", "safety held at every crash point"},
		{"-blackbox-sweep", "every recovered report matched its crash-instant oracle"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{tc.flag, "-serve-points", "8", "-seed", "7"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr not empty:\n%s", &stderr)
			}
			out := strings.TrimRight(stdout.String(), "\n")
			if last := out[strings.LastIndexByte(out, '\n')+1:]; !strings.Contains(last, tc.held) {
				t.Errorf("closing line %q does not say %q", last, tc.held)
			}
			for _, want := range []string{"8 crash points", "8 runs crashed mid-traffic", "dedup tables checked against the record walk: 8"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// A flag value outside its range is reported on stderr with exit 1; an
// unknown flag is a usage error, exit 2.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-nested-sweep", "-recovery-budget-scale", "1.5"}, 1, "outside (0,1]"},
		{[]string{"-nested-sweep", "-recovery-budget-scale", "NaN"}, 1, "outside (0,1]"},
		{[]string{"-sensor-sweep", "-gauge-lie", "2"}, 1, "outside [0,1]"},
		{[]string{"-sensor-sweep", "-gauge-lie", "NaN"}, 1, "outside [0,1]"},
		{[]string{"-sensor-sweep", "-gauge-stuck", "NaN"}, 1, "outside [0,1]"},
		{[]string{"-sensor-sweep", "-gauge-drift", "NaN"}, 1, "outside [0,1]"},
		{[]string{"-sensor-sweep", "-gauge-lie-max", "NaN"}, 1, "outside [0,1]"},
		{[]string{"-sag", "NaN"}, 1, "-sag NaN"},
		{[]string{"-scrub-share", "-0.5"}, 1, "Scrub.BandwidthShare -0.5"},
		{[]string{"-scrub-share", "NaN"}, 1, "Scrub.BandwidthShare NaN"},
		{[]string{"-serve-sweep", "-serve-clients", "-2"}, 1, "-serve-clients -2 is negative"},
		{[]string{"-serve-sweep", "-serve-points", "-1"}, 1, "-serve-points -1 is negative"},
		{[]string{"-nested-sweep", "-recrash-depth", "-1"}, 1, "-recrash-depth -1 is negative"},
		{[]string{"-write-error-prob", "NaN"}, 1, "-write-error-prob NaN outside [0,1]"},
		{[]string{"-write-error-prob", "2"}, 1, "-write-error-prob 2 outside [0,1]"},
		{[]string{"-torn-prob", "-1"}, 1, "-torn-prob -1 outside [0,1]"},
		{[]string{"-spike-prob", "3"}, 1, "-spike-prob 3 outside [0,1]"},
		{[]string{"-lost-prob", "NaN"}, 1, "-lost-prob NaN outside [0,1]"},
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

// An SSD that fails every write blocks writes on the emergency rung, and
// the workload's write returns refused, naming the rung. It used to spin:
// the emergency drain ran nested under clean submissions waiting for a
// device slot and waited for those submissions to complete.
func TestDeadSSDWriteReturns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-write-error-prob", "1", "-size", "4194304"}, &stdout, &stderr) }()
	select {
	case code := <-done:
		if code != 1 || !strings.Contains(stderr.String(), "write to protected page") || !strings.Contains(stderr.String(), "ladder state EmergencyFlush") {
			t.Fatalf("exit %d, stderr %q: want exit 1 naming the refused write and the EmergencyFlush rung", code, &stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with every SSD write failing did not return in 30 s")
	}
}
