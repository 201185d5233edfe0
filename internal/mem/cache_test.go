package mem

import "testing"

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Ways: 2})
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(8, false); !hit {
		t.Fatal("same-line access missed")
	}
	if hit, _ := c.Access(64, false); hit {
		t.Fatal("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 8 sets of 64B lines -> addresses 0, 1024, 2048 map to set 0.
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Ways: 2})
	c.Access(0, false)
	c.Access(1024, false)
	c.Access(0, false)    // refresh line 0
	c.Access(2048, false) // evicts 1024 (LRU)
	if hit, _ := c.Access(0, false); !hit {
		t.Error("recently used line evicted")
	}
	if hit, _ := c.Access(1024, false); hit {
		t.Error("LRU line survived eviction")
	}
}

func TestCacheWriteBack(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Ways: 2})
	c.Access(0, true) // dirty
	c.Access(1024, false)
	_, wb := c.Access(2048, false) // evicts dirty line 0
	if !wb {
		t.Error("expected write-back of dirty victim")
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d", c.Stats().WriteBacks)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 1024, LineSize: 64, Ways: 2})
	c.Access(0, true)
	c.Reset()
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	if hit, _ := c.Access(0, false); hit {
		t.Error("line survived reset")
	}
}

func TestHierarchyDRAMAccounting(t *testing.T) {
	h := NewX86Hierarchy()
	// Cold read: misses everywhere, one DRAM line fill.
	if lvl := h.Access(0x100000, false); lvl != 4 {
		t.Fatalf("cold access level = %d, want 4", lvl)
	}
	if h.Stats().DRAMReadBytes != LineSize {
		t.Errorf("DRAMReadBytes = %d", h.Stats().DRAMReadBytes)
	}
	// Re-read: L1 hit, no new traffic.
	if lvl := h.Access(0x100000, false); lvl != 1 {
		t.Fatalf("warm access level = %d, want 1", lvl)
	}
	if h.Stats().DRAMReadBytes != LineSize {
		t.Errorf("warm access generated traffic: %+v", h.Stats())
	}
}

func TestHierarchyOffCoreTraffic(t *testing.T) {
	h := NewX86Hierarchy()
	// Stream far more than L2 (256 KiB) to force off-core traffic.
	n := uint64(1 << 20 / LineSize)
	for i := uint64(0); i < n; i++ {
		h.Access(i*LineSize, false)
	}
	if h.Stats().OffCoreBytes == 0 {
		t.Fatal("no off-core traffic for streaming read")
	}
	if h.Stats().DRAMReadBytes != n*LineSize {
		t.Errorf("DRAMReadBytes = %d, want %d", h.Stats().DRAMReadBytes, n*LineSize)
	}
}

func TestTagCacheProbe(t *testing.T) {
	h := NewX86Hierarchy()
	if hit := h.AccessTags(0); hit {
		t.Fatal("cold tag probe hit")
	}
	// Same 8 KiB data span shares a tag line.
	if hit := h.AccessTags(TagLineCoverage - 64); !hit {
		t.Error("tag probe within covered span missed")
	}
	if hit := h.AccessTags(TagLineCoverage); hit {
		t.Error("tag probe in next span hit")
	}
	if h.Stats().TagDRAMReads != 2*LineSize {
		t.Errorf("TagDRAMReads = %d", h.Stats().TagDRAMReads)
	}
}

// BenchmarkHierarchySweepStream replays the access stream of a cold
// revocation sweep through the x86 hierarchy: one CLoadTags probe and one
// data read per line over 16 MiB (twice the LLC, so the LLC evicts), with a
// Reset before each pass as a sharded sweep resets its clones. It reports
// ns/line.
func BenchmarkHierarchySweepStream(b *testing.B) {
	const base, span = uint64(0x10000000), uint64(16 << 20)
	h := NewX86Hierarchy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for addr := base; addr < base+span; addr += LineSize {
			h.AccessTags(addr)
			h.Access(addr, false)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*span/LineSize), "ns/line")
}
