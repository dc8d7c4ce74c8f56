package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden reads one of testdata's goldens.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// runOK runs the command and fails the test unless it exits 0 with
// nothing on stderr.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, &stderr)
	}
	return stdout.Bytes()
}

// The default demo against its golden; then the same demo saving its
// crash ring with -out, which prints one line more, and -in on that image
// against the second golden. The runs work in a temporary directory, so
// the image is named ring.img. Re-record, in an empty directory, with
// `go run viyojit/cmd/blackbox > default.golden`,
// `go run viyojit/cmd/blackbox -out ring.img` and
// `go run viyojit/cmd/blackbox -in ring.img > in.golden`.
func TestGolden(t *testing.T) {
	want, wantIn := golden(t, "default.golden"), golden(t, "in.golden")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	if got := runOK(t); !bytes.Equal(got, want) {
		t.Errorf("default demo differs from testdata/default.golden:\n%s", got)
	}
	saved := "crash ring image saved to ring.img (8192 bytes) — replay with -in ring.img\n"
	got := string(runOK(t, "-out", "ring.img"))
	if !strings.Contains(got, saved) || strings.Replace(got, saved, "", 1) != string(want) {
		t.Errorf("-out run is not the default demo plus %q:\n%s", saved, got)
	}
	if got := runOK(t, "-in", "ring.img"); !bytes.Equal(got, wantIn) {
		t.Errorf("-in ring.img differs from testdata/in.golden:\n%s", got)
	}
}

// An unknown flag is a usage error, exit 2; an -in file that does not
// exist, or a negative -n, is reported on stderr with exit 1. None prints
// a report.
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-in", filepath.Join(t.TempDir(), "missing.img")}, 1, "blackbox: open "},
		{[]string{"-n", "-5"}, 1, "blackbox: -n -5 is negative"},
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
