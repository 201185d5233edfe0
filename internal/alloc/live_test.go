package alloc

import (
	"errors"
	"testing"
)

func TestLargeAllocationLifecycle(t *testing.T) {
	a := newAlloc(t)
	small, _, _ := a.Malloc(64)
	// 1 MiB and above does not fit a live-table slot; a size one granule
	// short of the slot limit does.
	sizes := []uint64{(bigSlot - 1) * Granule, bigSlot * Granule, 1 << 20, 3<<20 + 5}
	addrs := make([]uint64, len(sizes))
	for i, n := range sizes {
		addr, padded, err := a.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if padded != roundUp(n) {
			t.Errorf("Malloc(%d) padded = %d", n, padded)
		}
		if got, ok := a.SizeOf(addr); !ok || got != padded {
			t.Errorf("SizeOf(%#x) = %d, %v; want %d", addr, got, ok, padded)
		}
		addrs[i] = addr
	}
	if len(a.bigLive) != 3 {
		t.Errorf("overflow map holds %d sizes, want 3", len(a.bigLive))
	}
	must(t, a.CheckInvariants())

	var seen []uint64
	a.ForEachLive(func(addr, size uint64) {
		seen = append(seen, addr)
		if got, _ := a.SizeOf(addr); got != size {
			t.Errorf("ForEachLive(%#x) size %d, SizeOf %d", addr, size, got)
		}
	})
	if want := append([]uint64{small}, addrs...); len(seen) != len(want) {
		t.Errorf("ForEachLive visited %#x, want %#x", seen, want)
	} else {
		for i := range want {
			if seen[i] != want[i] {
				t.Errorf("ForEachLive visited %#x, want ascending %#x", seen, want)
				break
			}
		}
	}

	for _, addr := range addrs {
		must(t, a.Free(addr))
		if _, ok := a.SizeOf(addr); ok {
			t.Errorf("SizeOf(%#x) still live after Free", addr)
		}
		if err := a.Free(addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("double free of %#x: got %v", addr, err)
		}
	}
	if len(a.bigLive) != 0 || a.LiveCount() != 1 || a.LiveBytes() != 64 {
		t.Errorf("after frees: %d overflow sizes, %d live, %d bytes", len(a.bigLive), a.LiveCount(), a.LiveBytes())
	}
	must(t, a.CheckInvariants())
}

func TestWildFrees(t *testing.T) {
	a := newAlloc(t)
	p, _, _ := a.Malloc(64)
	q, _, _ := a.Malloc(4096)
	released, _, _ := a.Malloc(32)
	if _, err := a.Release(released); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		addr uint64
	}{
		{"zero", 0},
		{"below base", heapBase - Granule},
		{"at top", heapBase + a.HeapBytes()},
		{"above top, mapped", heapBase + a.MappedBytes() - Granule},
		{"beyond mapping", heapBase + a.MappedBytes() + 1<<30},
		{"top of address space", ^uint64(0) &^ (Granule - 1)},
		{"not granule-aligned", p + 8},
		{"interior", q + 1024},
		{"double free", released},
	}
	for _, c := range cases {
		if err := a.Free(c.addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: Free(%#x) = %v", c.name, c.addr, err)
		}
		if _, err := a.Release(c.addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("%s: Release(%#x) = %v", c.name, c.addr, err)
		}
		if _, ok := a.SizeOf(c.addr); ok {
			t.Errorf("%s: SizeOf(%#x) reports live", c.name, c.addr)
		}
	}
	if a.LiveCount() != 2 || a.LiveBytes() != 64+4096 {
		t.Errorf("bad frees changed the live set: %d live, %d bytes", a.LiveCount(), a.LiveBytes())
	}
	must(t, a.CheckInvariants())
}

// TestCheckInvariantsCatchesIndexDrift corrupts each index the allocator
// keeps beside its free maps and checks that CheckInvariants reports it.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	setup := func(t *testing.T) (*Allocator, uint64) {
		a := newAlloc(t)
		p, _, _ := a.Malloc(64)
		big, _, _ := a.Malloc(2 << 20)
		a.Malloc(64)
		must(t, a.Free(p))
		must(t, a.CheckInvariants())
		return a, big
	}
	corruptions := map[string]func(a *Allocator, big uint64){
		"binmap bit for an empty bin": func(a *Allocator, _ uint64) { a.binmap |= 1 << 40 },
		"binmap bit missing":          func(a *Allocator, _ uint64) { a.binmap &^= 1 << binFor(64) },
		"nLive":                       func(a *Allocator, _ uint64) { a.nLive++ },
		"sentinel without overflow":   func(a *Allocator, big uint64) { delete(a.bigLive, big) },
		"overflow without sentinel":   func(a *Allocator, big uint64) { a.bigLive[big+Granule] = 2 << 20 },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			a, big := setup(t)
			corrupt(a, big)
			if a.CheckInvariants() == nil {
				t.Error("CheckInvariants missed the corruption")
			}
		})
	}
}
