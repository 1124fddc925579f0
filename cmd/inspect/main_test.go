package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scdc"
	"scdc/internal/datagen"
)

func writeStream(t *testing.T, dir, name string, stream []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunInspect exercises the CLI against plain, chunked, and legacy v1
// streams plus the failure paths, asserting exit codes and key fields.
func TestRunInspect(t *testing.T) {
	dir := t.TempDir()
	f := datagen.MustGenerate(datagen.Miranda, 0, []int{8, 10, 12}, 1)
	plain, err := scdc.Compress(f.Data, f.Dims(), scdc.Options{Algorithm: scdc.HPEZ, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := scdc.CompressChunked(f.Data, f.Dims(), scdc.Options{Algorithm: scdc.SZ3, ErrorBound: 1e-3, Workers: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), plain[:len(plain)-4]...)
	v1[4] = 1

	plainPath := writeStream(t, dir, "plain.scdc", plain)
	chunkedPath := writeStream(t, dir, "chunked.scdc", chunked)
	v1Path := writeStream(t, dir, "v1.scdc", v1)

	var stdout, stderr bytes.Buffer
	if code := run([]string{plainPath, chunkedPath, v1Path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	text := stdout.String()
	for _, want := range []string{
		"version    2",
		"version    1",
		"integrity  crc32c",
		"integrity  none (legacy v1)",
		"algorithm  HPEZ",
		"algorithm  SZ3",
		"dims       [8 10 12] (960 points)",
		"chunks     2 x extent 4 along dim 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\ngot:\n%s", want, text)
		}
	}

	// Usage error without arguments.
	stdout.Reset()
	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no-args exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Error("no usage message on empty invocation")
	}

	// Missing and corrupt files exit 1 but still report per-file errors.
	stdout.Reset()
	stderr.Reset()
	badPath := writeStream(t, dir, "bad.scdc", []byte("not a stream"))
	if code := run([]string{badPath, filepath.Join(dir, "nope.scdc")}, &stdout, &stderr); code != 1 {
		t.Errorf("bad-input exit %d, want 1", code)
	}
	if got := stderr.String(); !strings.Contains(got, "bad.scdc") || !strings.Contains(got, "nope.scdc") {
		t.Errorf("stderr missing per-file errors:\n%s", got)
	}

	// A tampered v2 stream must be reported, not described as healthy.
	flipped := append([]byte(nil), plain...)
	flipped[len(flipped)/2] ^= 0x01
	flippedPath := writeStream(t, dir, "flipped.scdc", flipped)
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{flippedPath}, &stdout, &stderr); code != 1 {
		t.Errorf("tampered stream exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "integrity") {
		t.Errorf("tampered stream error does not mention integrity: %s", stderr.String())
	}
}
