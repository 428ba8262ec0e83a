package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mind/internal/mem"
	"mind/internal/trace"
)

// TestCaptureInspectReplayRoundTrip is the short-mode smoke test for the
// capture-once, replay-everywhere pipeline: capture a small TF trace to
// a file, inspect it, and replay it on a 2-blade rack.
func TestCaptureInspectReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tf-t0.trc")
	const ops = 2000
	if err := doCapture("TF", path, 0, 4, 2, ops, 1, 1); err != nil {
		t.Fatalf("capture: %v", err)
	}

	var insp strings.Builder
	if err := doInspect(&insp, path); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(insp.String(), "2000 accesses") {
		t.Errorf("inspect output missing access count: %q", insp.String())
	}

	var rep strings.Builder
	if err := doReplay(&rep, path, 2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(rep.String(), "replayed 2000 accesses") {
		t.Errorf("replay output missing access count: %q", rep.String())
	}
	if !strings.Contains(rep.String(), "hits ") {
		t.Errorf("replay output missing stats line: %q", rep.String())
	}
}

// TestCaptureUnknownWorkload pins the error path (no os.Exit involved).
func TestCaptureUnknownWorkload(t *testing.T) {
	err := doCapture("nope", filepath.Join(t.TempDir(), "x.trc"), 0, 1, 1, 10, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown workload", err)
	}
}

// TestReplayTraceBelowCaptureBase: trace.Read accepts any address below
// 2^63, so a valid trace need not start at the capture base. One at
// 0x1000 replays in full instead of sizing a wrapped-around area.
func TestReplayTraceBelowCaptureBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "low.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tw.Append(0x1000+mem.VA(i%8)*mem.PageSize, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	if err := doReplay(&rep, path, 2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(rep.String(), "replayed 100 accesses") {
		t.Errorf("replay output missing access count: %q", rep.String())
	}
}
