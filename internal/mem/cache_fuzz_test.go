package mem

import (
	"encoding/binary"
	"testing"
)

// FuzzCacheAccess fuzzes the set-index/tag math of Cache.Access across
// arbitrary — in particular non-power-of-two — geometries. The doc contract
// says Size should be a multiple of LineSize*Ways, but the sweep model must
// stay total for any geometry an experiment config can express, so the fuzz
// holds these invariants for all inputs:
//
//  1. no panic and every access lands in a valid set (indexing is modular);
//  2. no false hits: a hit implies the line was accessed before;
//  3. no false misses for the hottest line: re-accessing the line touched
//     immediately before always hits (associativity ≥ 1 and LRU recency);
//  4. counter coherence: hits+misses equals accesses, write-backs never
//     exceed misses (only allocations evict), and a second identical run
//     on a fresh cache reproduces the same counters (determinism);
//  5. equivalence: every (hit, writeBack) and every counter matches the
//     frozen reference model (cache_ref_test.go).
//
// Each op is 9 bytes: a little-endian address, then a flag byte whose bit 0
// makes the access a write and whose bit 1 resets both caches before it.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint32(1024), uint16(64), uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	// Non-power-of-two capacity, line size and ways.
	f.Add(uint32(3000), uint16(48), uint8(3), []byte("\x10\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Add(uint32(7), uint16(1), uint8(1), []byte("abcdefghijklmnopqr"))
	f.Add(uint32(96<<10), uint16(96), uint8(12), make([]byte, 64))
	// Dirty fills into one set, a Reset, then the same lines again.
	f.Add(uint32(256), uint16(64), uint8(2), []byte(
		"\x00\x00\x00\x00\x00\x00\x00\x00\x01"+
			"\x00\x02\x00\x00\x00\x00\x00\x00\x01"+
			"\x00\x04\x00\x00\x00\x00\x00\x00\x01"+
			"\x00\x00\x00\x00\x00\x00\x00\x00\x02"+
			"\x00\x02\x00\x00\x00\x00\x00\x00\x00"+
			"\x00\x04\x00\x00\x00\x00\x00\x00\x03"))

	f.Fuzz(func(t *testing.T, size uint32, lineSize uint16, ways uint8, ops []byte) {
		if lineSize == 0 {
			lineSize = 1
		}
		if ways == 0 {
			ways = 1
		}
		if size > 1<<22 {
			size = 1 << 22
		}
		cfg := CacheConfig{Name: "fuzz", Size: uint64(size), LineSize: uint64(lineSize), Ways: int(ways)}

		run := func() (CacheStats, bool) {
			c, ref := NewCache(cfg), newRefCache(cfg)
			seen := map[uint64]bool{}
			var accesses, lastLine uint64
			haveLast := false
			ops := ops
			for len(ops) >= 9 {
				addr := binary.LittleEndian.Uint64(ops)
				write := ops[8]&1 == 1
				if ops[8]&2 != 0 {
					c.Reset()
					ref.Reset()
					clear(seen)
					accesses = 0
				}
				ops = ops[9:]
				line := addr / cfg.LineSize

				hit, wb := c.Access(addr, write)
				accesses++
				if rhit, rwb := ref.Access(addr, write); hit != rhit || wb != rwb {
					t.Fatalf("Access(%#x, %v) = (%v, %v), reference (%v, %v) (cfg %+v)",
						addr, write, hit, wb, rhit, rwb, cfg)
				}
				if hit && !seen[line] {
					t.Fatalf("false hit: line %#x never accessed (cfg %+v)", line, cfg)
				}
				if wb && hit {
					t.Fatalf("write-back on a hit (cfg %+v)", cfg)
				}
				seen[line] = true

				// Immediate re-access of the same line must hit.
				reHit, reWB := c.Access(addr, false)
				if !reHit {
					t.Fatalf("immediate re-access of %#x missed (cfg %+v)", addr, cfg)
				}
				if rhit, rwb := ref.Access(addr, false); reHit != rhit || reWB != rwb {
					t.Fatalf("re-access of %#x = (%v, %v), reference (%v, %v) (cfg %+v)",
						addr, reHit, reWB, rhit, rwb, cfg)
				}
				accesses++
				if c.Stats() != ref.stats {
					t.Fatalf("stats %+v, reference %+v (cfg %+v)", c.Stats(), ref.stats, cfg)
				}
				lastLine, haveLast = line, true
			}
			s := c.Stats()
			if s.Hits+s.Misses != accesses {
				t.Fatalf("hits %d + misses %d != accesses %d", s.Hits, s.Misses, accesses)
			}
			if s.WriteBacks > s.Misses {
				t.Fatalf("write-backs %d exceed misses %d", s.WriteBacks, s.Misses)
			}
			return s, haveLast && seen[lastLine]
		}

		first, _ := run()
		second, _ := run()
		if first != second {
			t.Fatalf("same access stream, different counters: %+v vs %+v", first, second)
		}
	})
}
