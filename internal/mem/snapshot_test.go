package mem

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/cap"
)

func buildSnapshotFixture(t *testing.T) *Memory {
	t.Helper()
	m := New()
	if err := m.Map(heapBase, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, _ := root.SetBoundsExact(heapBase, 4*PageSize)
	obj, _ := heap.SetBoundsExact(heapBase+0x200, 64)
	if err := m.StoreCap(heap, heapBase+0x40, obj); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(heap, heapBase+PageSize+8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCapStoreInhibit(heapBase+2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	// Data, tags and PTE metadata all survive.
	if v, _ := got.RawLoadWord(heapBase + PageSize + 8); v != 0xABCD {
		t.Errorf("data word = %#x", v)
	}
	if tag, _ := got.Tag(heapBase + 0x40); !tag {
		t.Error("tag lost in snapshot")
	}
	c, err := got.RawLoadCap(heapBase + 0x40)
	if err != nil || !c.Tag() || c.Base() != heapBase+0x200 {
		t.Errorf("capability image corrupted: %v, %v", c, err)
	}
	if dirty, _ := got.CapDirty(heapBase); !dirty {
		t.Error("CapDirty lost")
	}
	inhibitErr := got.RawStoreCap(heapBase+2*PageSize, c)
	if inhibitErr == nil {
		t.Error("capability-store-inhibit lost")
	}
	if !got.CheckTagInvariant() {
		t.Error("tag invariant violated after restore")
	}
	// Counters are fresh: sweeping a dump measures the sweep only.
	if got.Stats() != (Stats{}) {
		t.Errorf("restored stats not zero: %+v", got.Stats())
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	a, b := buildSnapshotFixture(t), buildSnapshotFixture(t)
	var ba, bb bytes.Buffer
	if err := a.WriteSnapshot(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("identical states serialise differently")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSnapshotRejectsDuplicatePage(t *testing.T) {
	img := snapshotImage{Version: snapshotVersion, Pages: []snapshotPage{
		{VPN: heapBase / PageSize},
		{VPN: heapBase/PageSize + 1},
		{VPN: heapBase / PageSize},
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "duplicate page") {
		t.Errorf("duplicate page: got %v", err)
	}
}
