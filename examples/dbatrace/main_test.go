package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputIsPinned: the example prints testdata/stdout.golden byte
// for byte, so a change to the probe, the remap or the allocator that
// moves what the example shows fails here.
func TestOutputIsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from testdata/stdout.golden:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
