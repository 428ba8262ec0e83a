package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/workloads"
)

func TestRoundTripBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{VA: 0x100000000, Write: false},
		{VA: 0x100001000, Write: true},
		{VA: 0x7fffffff000, Write: true},
	}
	for _, r := range recs {
		if err := w.Append(r.VA, r.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripFileWithCountFixup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := w.Append(mem.VA(0x100000000+i*64), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := Read(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("records = %d", len(got))
	}
	if !got[0].Write && !got[3].Write {
		t.Error("write flags lost")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace at all"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("garbage: %v", err)
	}
	// Correct magic, wrong declared count.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Append(0x1000, false)
	_ = w.Finish()
	data := buf.Bytes()
	data[8] = 42 // corrupt the count
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("count mismatch: %v", err)
	}
	// Truncated record.
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2)
	_ = w2.Append(0x1000, false)
	_ = w2.Finish()
	if _, err := Read(bytes.NewReader(buf2.Bytes()[:20])); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated: %v", err)
	}
}

func TestAppendRejectsHugeAddress(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Append(mem.VA(1)<<63, false); err == nil {
		t.Error("top-bit address accepted")
	}
}

// capture records gen through the path cmd/tracecap ships: Append for
// every access, Finish, then Read of the bytes written.
func capture(t *testing.T, gen core.AccessGen) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for va, wr, ok := gen(); ok; va, wr, ok = gen() {
		if err := w.Append(va, wr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCaptureReplayIdentical(t *testing.T) {
	// The paper's methodology: capture once, replay identically.
	w := workloads.GC(1)
	p := workloads.Params{Threads: 2, Blades: 2, OpsPerThread: 500, Seed: 9}
	recs := capture(t, w.Gen(0x100000000, 0, p))
	if len(recs) != 500 {
		t.Fatalf("captured %d", len(recs))
	}
	replay := Replay(recs)
	orig := w.Gen(0x100000000, 0, p)
	for i := 0; ; i++ {
		va1, wr1, ok1 := orig()
		va2, wr2, ok2 := replay()
		if ok1 != ok2 || va1 != va2 || wr1 != wr2 {
			t.Fatalf("divergence at %d", i)
		}
		if !ok1 {
			break
		}
	}
}

func TestRebase(t *testing.T) {
	recs := []Record{{VA: 0x100000010, Write: true}, {VA: 0x100002000}}
	out := Rebase(recs, 0x100000000, 0x200000000)
	if out[0].VA != 0x200000010 || out[1].VA != 0x200002000 {
		t.Errorf("rebase wrong: %+v", out)
	}
	if !out[0].Write || out[1].Write {
		t.Error("write flags lost in rebase")
	}
	// The original is untouched.
	if recs[0].VA != 0x100000010 {
		t.Error("rebase mutated input")
	}
}

// TestUnknownCountTolerated is the header-count-footgun regression test:
// a Writer over a non-seekable sink (bytes.Buffer) cannot fix the header
// up, so the count stays UnknownCount — Read must treat that as "not
// recorded" and trust the record framing, not as a declared 2^64-1.
func TestUnknownCountTolerated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := w.Append(mem.VA(0x100000000+i*0x1000), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf.Bytes()[8:16]); got != UnknownCount {
		t.Fatalf("non-seekable sink header count = %#x, want UnknownCount", got)
	}
	recs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read rejected an unknown-count trace: %v", err)
	}
	if len(recs) != 7 {
		t.Fatalf("got %d records, want 7", len(recs))
	}
}

// TestRealCountMismatchRejected: a declared count that disagrees with
// the records present is corruption and must fail with ErrBadTrace —
// including a trace truncated at a clean record boundary, which parses
// record by record without error.
func TestRealCountMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(mem.VA(0x100000000+i*0x1000), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Stamp the real count in (as a seekable sink's Finish would)...
	binary.LittleEndian.PutUint64(data[8:16], 5)
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("exact count rejected: %v", err)
	}
	// ...then truncate at a record boundary: framing alone can't see it.
	trunc := data[:16+3*9]
	_, err = Read(bytes.NewReader(trunc))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("boundary-truncated trace: err = %v, want ErrBadTrace", err)
	}
	// An over-declared count is equally corrupt.
	binary.LittleEndian.PutUint64(data[8:16], 9)
	_, err = Read(bytes.NewReader(data))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("over-declared count: err = %v, want ErrBadTrace", err)
	}
}

// FuzzTraceRead: Read must never panic on any byte string, and any trace
// it accepts must round-trip through NewWriter and Finish to identical
// records.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(mem.VA(0x100000000+i*0x1000), i == 1); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	counted := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(counted[8:16], 3)
	f.Add(valid)
	f.Add(counted)
	f.Add(valid[:16+9+4])
	f.Add(valid[:16])
	f.Add([]byte("MINDTRC0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r.VA, r.Write); err != nil {
				t.Fatalf("accepted record %+v does not write back: %v", r, err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("written-back trace rejected: %v", err)
		}
		if !slices.Equal(back, recs) {
			t.Fatalf("round trip changed %d records into %d", len(recs), len(back))
		}
	})
}
