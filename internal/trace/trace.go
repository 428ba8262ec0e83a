// Package trace provides capture and replay of memory-access traces in a
// compact binary format. The paper's methodology (§7) captures each
// workload's accesses once with Intel PIN and replays the identical
// stream through every compared system; this package provides the same
// capability for the simulator: record any AccessGen to a file (or
// buffer), then replay it bit-identically across MIND, GAM and FastSwap
// runs.
//
// Format (little endian): a 16-byte header ("MINDTRC1", count uint64)
// followed by one 9-byte record per access: 8 bytes of virtual address
// with the write flag packed into the top bit, then a reserved byte for
// future flags. Addresses above 2^63 are not representable (the global
// VA space in this repo starts at 4 GB and stays far below).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mind/internal/core"
	"mind/internal/mem"
)

// magic identifies trace files/buffers.
var magic = [8]byte{'M', 'I', 'N', 'D', 'T', 'R', 'C', '1'}

// writeBit packs the access kind into the address's top bit.
const writeBit = uint64(1) << 63

// ErrBadTrace is returned for malformed trace data.
var ErrBadTrace = errors.New("trace: malformed trace")

// UnknownCount is the header count sentinel a Writer leaves behind when
// its sink is not seekable (Finish cannot rewind to fix the count up).
// Readers must treat it as "count not recorded" — the record framing is
// authoritative — and must NOT treat it as a declared count of 2^64-1.
// Any other declared count that disagrees with the records actually
// present is a real corruption and fails with ErrBadTrace.
const UnknownCount = ^uint64(0)

// Record is one captured access.
type Record struct {
	VA    mem.VA
	Write bool
}

// Writer streams records to an io.Writer. Close (Flush) before reading
// the data back.
type Writer struct {
	w     *bufio.Writer
	count uint64
	// Fixing up the header's count field requires a seekable sink or a
	// two-pass scheme; we instead terminate with a footer-free format and
	// trust the record framing. The header count is written by Finish
	// when the sink supports io.WriteSeeker, else left as UnknownCount.
	seeker io.WriteSeeker
}

// NewWriter starts a trace on w. If w also implements io.WriteSeeker the
// header's record count is fixed up on Finish.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	if s, ok := w.(io.WriteSeeker); ok {
		tw.seeker = s
	}
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], UnknownCount)
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Append records one access.
func (t *Writer) Append(va mem.VA, write bool) error {
	if uint64(va)&writeBit != 0 {
		return fmt.Errorf("trace: address %#x out of range", uint64(va))
	}
	v := uint64(va)
	if write {
		v |= writeBit
	}
	var rec [9]byte
	binary.LittleEndian.PutUint64(rec[:8], v)
	t.count++
	_, err := t.w.Write(rec[:])
	return err
}

// Count returns records appended so far.
func (t *Writer) Count() uint64 { return t.count }

// Finish flushes buffered records and, when possible, fixes up the
// header count.
func (t *Writer) Finish() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	if t.seeker == nil {
		return nil
	}
	if _, err := t.seeker.Seek(8, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], t.count)
	if _, err := t.seeker.Write(cnt[:]); err != nil {
		return err
	}
	_, err := t.seeker.Seek(0, io.SeekEnd)
	return err
}

// Read parses a whole trace into memory.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", ErrBadTrace)
	}
	if string(hdr[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("trace: bad magic: %w", ErrBadTrace)
	}
	declared := binary.LittleEndian.Uint64(hdr[8:])
	var out []Record
	for {
		var rec [9]byte
		_, err := io.ReadFull(br, rec[:])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: truncated record: %w", ErrBadTrace)
		}
		v := binary.LittleEndian.Uint64(rec[:8])
		out = append(out, Record{VA: mem.VA(v &^ writeBit), Write: v&writeBit != 0})
	}
	// A Writer over a non-seekable sink cannot fix the header up and
	// leaves the UnknownCount sentinel: the record framing above is
	// authoritative then. Any other declared value must match exactly —
	// a trace truncated at a record boundary parses cleanly record by
	// record and only this check catches it.
	if declared != UnknownCount && declared != uint64(len(out)) {
		return nil, fmt.Errorf("trace: header declares %d records, found %d: %w",
			declared, len(out), ErrBadTrace)
	}
	return out, nil
}

// Replay turns records into an AccessGen (the form every system in this
// repo consumes).
func Replay(records []Record) core.AccessGen {
	i := 0
	return func() (mem.VA, bool, bool) {
		if i >= len(records) {
			return 0, false, false
		}
		r := records[i]
		i++
		return r.VA, r.Write, true
	}
}

// Rebase shifts every address by (newBase - oldBase), so a trace captured
// against one allocation can replay against another system's layout.
func Rebase(records []Record, oldBase, newBase mem.VA) []Record {
	out := make([]Record, len(records))
	for i, r := range records {
		out[i] = Record{VA: r.VA - oldBase + newBase, Write: r.Write}
	}
	return out
}
