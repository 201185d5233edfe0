package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
)

// goldenSequence drives a seeded mix of every allocator entry point —
// Malloc, MallocAligned at capability-representable alignment, Free, Release
// with batched FreeRange of the quarantined ranges, and bad frees — and
// hashes every returned (addr, padded) pair, every free outcome and the
// final Stats. The figures depend on the allocator returning exactly this
// address sequence, so any change to placement, splitting, coalescing or bin
// order shows up as a different hash.
func goldenSequence(t testing.TB, opt Options, seed int64, ops int) string {
	a, err := NewWithOptions(mem.New(), heapBase, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	type span struct{ addr, size uint64 }
	var live, quarantine []span
	var nBig int
	size := func() uint64 {
		switch x := r.Intn(1000); {
		case x < 700:
			return uint64(1 + r.Intn(512))
		case x < 950:
			return uint64(513 + r.Intn(16<<10))
		case x < 995 || nBig >= 2:
			return uint64(16<<10 + r.Intn(256<<10))
		default:
			nBig++
			return uint64(1<<20 + r.Intn(2<<20)) // ≥ 1 MiB
		}
	}
	take := func() span {
		i := r.Intn(len(live))
		s := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if s.size >= 1<<20 {
			nBig--
		}
		return s
	}
	drain := func() {
		// The revoker hands back quarantine as coalesced address ranges.
		sort.Slice(quarantine, func(i, j int) bool { return quarantine[i].addr < quarantine[j].addr })
		for i := 0; i < len(quarantine); {
			start, end := quarantine[i].addr, quarantine[i].addr+quarantine[i].size
			for i++; i < len(quarantine) && quarantine[i].addr == end; i++ {
				end += quarantine[i].size
			}
			a.FreeRange(start, end-start)
			put(start, end-start)
		}
		quarantine = quarantine[:0]
	}
	for i := 0; i < ops; i++ {
		switch x := r.Intn(100); {
		case x < 40 || len(live) == 0:
			addr, padded, err := a.Malloc(size())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, span{addr, padded})
			put(1, addr, padded)
		case x < 50:
			n := cap.RepresentableLength(size())
			addr, padded, err := a.MallocAligned(n, cap.RepresentableAlignmentMask(n))
			if err != nil {
				t.Fatal(err)
			}
			if n >= 1<<20 {
				nBig++
			}
			live = append(live, span{addr, padded})
			put(2, addr, padded)
		case x < 75:
			s := take()
			if err := a.Free(s.addr); err != nil {
				t.Fatal(err)
			}
			put(3, s.addr)
		case x < 95:
			s := take()
			n, err := a.Release(s.addr)
			if err != nil || n != s.size {
				t.Fatalf("Release(%#x) = %d, %v; want %d", s.addr, n, err, s.size)
			}
			quarantine = append(quarantine, s)
			put(4, s.addr)
			if len(quarantine) >= 64 {
				drain()
			}
		default:
			// A bad free: a double free of a released chunk, an interior
			// or misaligned address of a live one, or a wild address
			// below the heap base or above its top.
			s := live[r.Intn(len(live))]
			var bad uint64
			switch r.Intn(4) {
			case 0:
				bad = s.addr + Granule*uint64(1+r.Intn(int(s.size/Granule)))
				if len(quarantine) > 0 {
					bad = quarantine[r.Intn(len(quarantine))].addr
				}
			case 1:
				bad = s.addr + Granule*uint64(r.Intn(int(s.size/Granule))) + 8
			case 2:
				bad = heapBase - Granule*uint64(1+r.Intn(1<<10))
			default:
				bad = heapBase + a.HeapBytes() + Granule*uint64(r.Intn(1<<16))
			}
			if _, ok := a.SizeOf(bad); !ok {
				if err := a.Free(bad); !errors.Is(err, ErrBadFree) {
					t.Fatalf("bad free of %#x: got %v", bad, err)
				}
				put(5, bad)
			}
		}
	}
	drain()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	put(uint64(a.LiveCount()), a.LiveBytes(), a.FreeBytes(), a.HeapBytes(), a.MappedBytes())
	fmt.Fprintf(h, "%+v", a.Stats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenAddressSequence pins the allocator's address sequence. The
// hashes were recorded from the map-indexed allocator and must not change
// when its data structures do.
func TestGoldenAddressSequence(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"default", Options{}, "d1fed158b1f0bfa489ec8514c01cce20ae724ef1c26041c1e2a70f2a1b2b6f7e"},
		{"typed", Options{TypedReuse: true}, "c6d75a9411a8afaf0108ae7d006d38ce21bc4f76ff7823fd25cc4205b2efb6b2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenSequence(t, c.opt, 1, 20000); got != c.want {
				t.Errorf("address-sequence hash = %s, want %s", got, c.want)
			}
		})
	}
}
