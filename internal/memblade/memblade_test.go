package memblade

import (
	"testing"

	"mind/internal/mem"
)

func TestReadUnwrittenReturnsNil(t *testing.T) {
	b := New(0)
	if got := b.ReadPageInto(0x1000, nil); got != nil {
		t.Errorf("unwritten page = %v, want nil (all-zero)", got)
	}
	if b.MaterializedPages() != 0 {
		t.Error("read must not materialize")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := New(1)
	data := make([]byte, mem.PageSize)
	data[0], data[4095] = 0xAA, 0xBB
	b.WritePage(0x2000, data)
	got := b.ReadPageInto(0x2345, nil) // any address within the page
	if got == nil || got[0] != 0xAA || got[4095] != 0xBB {
		t.Fatalf("round trip failed: %v...", got[:2])
	}
	// The returned slice is a copy: mutating it must not affect the store.
	got[0] = 0x00
	if b.ReadPageInto(0x2000, nil)[0] != 0xAA {
		t.Error("ReadPageInto returned an aliased slice")
	}
	if b.MaterializedPages() != 1 {
		t.Errorf("materialized = %d", b.MaterializedPages())
	}
}

func TestNilWriteIsBarrier(t *testing.T) {
	b := New(0)
	b.WritePage(0x3000, nil)
	if b.MaterializedPages() != 0 {
		t.Error("nil write materialized a page")
	}
	reads, writes := b.Ops()
	if reads != 0 || writes != 1 {
		t.Errorf("ops = %d/%d", reads, writes)
	}
}

func TestPartialOverwrite(t *testing.T) {
	b := New(0)
	d1 := make([]byte, mem.PageSize)
	d1[100] = 1
	b.WritePage(0x4000, d1)
	d2 := make([]byte, mem.PageSize)
	d2[100] = 2
	b.WritePage(0x4000, d2)
	if b.ReadPageInto(0x4000, nil)[100] != 2 {
		t.Error("overwrite lost")
	}
	if b.MaterializedPages() != 1 {
		t.Error("overwrite duplicated the page")
	}
}

func TestTakePagesInDrainsBatches(t *testing.T) {
	b := New(0)
	base := mem.VA(1) << 32
	for i := 0; i < 10; i++ {
		data := make([]byte, mem.PageSize)
		data[0] = byte(i + 1)
		b.WritePage(base+mem.VA(i)*mem.PageSize, data)
	}
	// Pages outside the range must be untouched.
	b.WritePage(base+mem.VA(100)*mem.PageSize, make([]byte, mem.PageSize))

	got := b.TakePagesIn(base, 10*mem.PageSize, 4)
	if len(got) != 4 {
		t.Fatalf("batch took %d pages, want 4", len(got))
	}
	for i, p := range got {
		if p.VA != base+mem.VA(i)*mem.PageSize {
			t.Fatalf("batch out of order: page %d at %#x", i, uint64(p.VA))
		}
		if p.Data[0] != byte(i+1) {
			t.Fatalf("page %d contents %d, want %d", i, p.Data[0], i+1)
		}
	}
	rest := b.TakePagesIn(base, 10*mem.PageSize, 0)
	if len(rest) != 6 {
		t.Fatalf("remainder took %d pages, want 6", len(rest))
	}
	if again := b.TakePagesIn(base, 10*mem.PageSize, 0); len(again) != 0 {
		t.Fatalf("%d pages left in drained range, want 0", len(again))
	}
	if b.MaterializedPages() != 1 {
		t.Fatalf("out-of-range page lost: %d materialized, want 1", b.MaterializedPages())
	}
}

func TestKillDiscardsAndBlocksAccess(t *testing.T) {
	b := New(0)
	va := mem.VA(1) << 32
	data := make([]byte, mem.PageSize)
	data[7] = 42
	b.WritePage(va, data)
	if lost := b.Kill(); lost != 1 {
		t.Fatalf("Kill lost %d pages, want 1", lost)
	}
	if !b.Dead() {
		t.Fatal("blade not marked dead")
	}
	if got := b.ReadPageInto(va, nil); got != nil {
		t.Fatalf("dead blade served data: %v", got[:8])
	}
	b.WritePage(va, data)
	b.InstallPage(PageCopy{VA: va, Data: data})
	if b.MaterializedPages() != 0 {
		t.Fatal("dead blade accepted writes")
	}
	if reads, writes := b.Ops(); reads != 0 || writes != 1 {
		t.Fatalf("ops = %d/%d, want 0/1: a dead blade serves nothing", reads, writes)
	}
}
