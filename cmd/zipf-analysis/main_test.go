package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Figure 5 at its defaults against its golden, byte for byte. Re-record
// with `go run ./cmd/zipf-analysis > cmd/zipf-analysis/testdata/default.golden`.
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

// An unknown flag is a usage error, exit 2, and prints nothing to stdout.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d with %d bytes of output, want 2 and none", code, stdout.Len())
	}
	if want := "flag provided but not defined"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", &stderr, want)
	}
}
