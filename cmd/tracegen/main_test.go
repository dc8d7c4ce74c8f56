package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// defaultTraceSHA256 pins the bytes of the trace the defaults generate
// under the name vol.trace (the volume records its name).
const defaultTraceSHA256 = "14d1259765dfa3771c69331a9081cd4b1cb051e850fb147fcc9282d09e84e081"

// The default volume against its golden: the summary, byte for byte, and
// the trace file by its SHA-256. The run writes vol.trace in a temporary
// directory. Re-record, in an empty directory, with
// `go run viyojit/cmd/tracegen -out vol.trace > default.golden` and
// `sha256sum vol.trace`.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", "vol.trace"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from testdata/default.golden:\n%s", &stdout)
	}
	data, err := os.ReadFile("vol.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), fmt.Sprintf(", %d bytes\n", len(data))) {
		t.Errorf("summary %q does not report the file's %d bytes", &stdout, len(data))
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(data)); sum != defaultTraceSHA256 {
		t.Errorf("trace file SHA-256 %s, want %s", sum, defaultTraceSHA256)
	}
}

// A missing -out or an unknown skew is reported on stderr with exit 1; an
// unknown flag is a usage error, exit 2. None of them writes a file.
func TestBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 1, "tracegen: -out is required"},
		{[]string{"-out", filepath.Join(dir, "a.trace"), "-skew", "flat"}, 1, `tracegen: unknown skew "flat"`},
		{[]string{"-out", filepath.Join(dir, "b.trace"), "-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-out", filepath.Join(dir, "c.trace"), "-write-frac", "NaN"}, 1, "worst-hour fraction NaN outside (0,1]"},
		{[]string{"-out", filepath.Join(dir, "d.trace"), "-touched", "NaN"}, 1, "touched fraction NaN outside (0,1]"},
		{[]string{"-out", filepath.Join(dir, "e.trace"), "-hot-frac", "2"}, 1, "hot fraction 2 outside (0,1]"},
		{[]string{"-out", filepath.Join(dir, "f.trace"), "-skew", "hot", "-hot-frac", "NaN"}, 1, "hot fraction NaN outside (0,1]"},
		{[]string{"-out", filepath.Join(dir, "g.trace"), "-theta", "-1"}, 1, "zipf theta -1 outside (0,1)"},
		{[]string{"-out", filepath.Join(dir, "h.trace"), "-theta", "NaN"}, 1, "zipf theta NaN outside (0,1)"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want %d and none", tc.args, code, stdout.Len(), tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, &stderr, tc.want)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("a failed run left %d files behind", len(files))
	}
}
