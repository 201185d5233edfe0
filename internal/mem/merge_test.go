package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randCacheStats draws bounded random counters (bounded so three-way sums
// cannot overflow and mask an algebra bug).
func randCacheStats(r *rand.Rand) CacheStats {
	return CacheStats{
		Hits:       uint64(r.Int63n(1 << 40)),
		Misses:     uint64(r.Int63n(1 << 40)),
		WriteBacks: uint64(r.Int63n(1 << 40)),
	}
}

// TestCacheStatsMergeAlgebra property-checks the merge monoid the sharded
// sweep relies on: identity (zero value), commutativity and associativity.
// Shard results are folded in shard-index order, but only these laws make
// that order a free choice rather than a correctness requirement.
func TestCacheStatsMergeAlgebra(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randCacheStats(r), randCacheStats(r), randCacheStats(r)
		if a.Merge(CacheStats{}) != a || (CacheStats{}).Merge(a) != a {
			t.Logf("identity violated for %+v", a)
			return false
		}
		if a.Merge(b) != b.Merge(a) {
			t.Logf("commutativity violated for %+v, %+v", a, b)
			return false
		}
		if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
			t.Logf("associativity violated for %+v, %+v, %+v", a, b, c)
			return false
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyStatsMergeAlgebra checks the same monoid laws for the
// hierarchy-level traffic totals.
func TestHierarchyStatsMergeAlgebra(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		draw := func() HierarchyStats {
			return HierarchyStats{
				DRAMReadBytes:  uint64(r.Int63n(1 << 40)),
				DRAMWriteBytes: uint64(r.Int63n(1 << 40)),
				OffCoreBytes:   uint64(r.Int63n(1 << 40)),
				TagDRAMReads:   uint64(r.Int63n(1 << 40)),
			}
		}
		a, b, c := draw(), draw(), draw()
		return a.Merge(HierarchyStats{}) == a &&
			a.Merge(b) == b.Merge(a) &&
			a.Merge(b).Merge(c) == a.Merge(b.Merge(c))
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCacheCloneCold(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Size: 4096, LineSize: 64, Ways: 4})
	c.Access(0, true)
	c.Access(64, false)
	clone := c.CloneCold()
	if clone.Config() != c.Config() {
		t.Errorf("clone geometry %+v != %+v", clone.Config(), c.Config())
	}
	if clone.Stats() != (CacheStats{}) {
		t.Errorf("clone not cold: %+v", clone.Stats())
	}
	if hit, _ := clone.Access(0, false); hit {
		t.Error("clone inherited a line")
	}
	// Cloning must not disturb the original.
	if hit, _ := c.Access(0, false); !hit {
		t.Error("original lost its line to the clone")
	}
}

func TestHierarchyCloneColdAndAbsorb(t *testing.T) {
	for _, h := range []*Hierarchy{NewX86Hierarchy(), NewCHERIHierarchy()} {
		h.Access(0x1000, true)
		h.AccessTags(0x1000)
		clone := h.CloneCold()
		if clone.Stats() != (HierarchyStats{}) {
			t.Errorf("clone not cold: %+v", clone.Stats())
		}
		for i, lvl := range clone.Levels() {
			if lvl.CacheStats != (CacheStats{}) {
				t.Errorf("clone level %s not cold: %+v", lvl.Name, lvl)
			}
			if lvl.Name != h.Levels()[i].Name {
				t.Errorf("clone level %d named %q, want %q", i, lvl.Name, h.Levels()[i].Name)
			}
		}

		// Absorbing two clones in either order yields the same totals.
		a, b := h.CloneCold(), h.CloneCold()
		for i := uint64(0); i < 64; i++ {
			a.Access(i*LineSize, i%2 == 0)
			b.Access((1<<20)+i*LineSize*3, false)
			b.AccessTags(i * TagLineCoverage)
		}
		ab, ba := h.CloneCold(), h.CloneCold()
		ab.Absorb(a)
		ab.Absorb(b)
		ba.Absorb(b)
		ba.Absorb(a)
		if ab.Stats() != ba.Stats() {
			t.Errorf("absorb order changed totals: %+v vs %+v", ab.Stats(), ba.Stats())
		}
		for i := range ab.Levels() {
			if ab.Levels()[i] != ba.Levels()[i] {
				t.Errorf("absorb order changed level %d: %+v vs %+v",
					i, ab.Levels()[i], ba.Levels()[i])
			}
		}
	}
}

func TestShardClonesReusedCold(t *testing.T) {
	h := NewX86Hierarchy()
	first := h.ShardClones(2)
	for _, c := range first {
		c.Access(0x1000, true)
		c.AccessTags(0x1000)
	}
	again := h.ShardClones(4)
	if len(again) != 4 || again[0] != first[0] || again[1] != first[1] {
		t.Fatalf("ShardClones(4) did not reuse the first two clones")
	}
	for i, c := range again {
		if c.Stats() != (HierarchyStats{}) {
			t.Errorf("clone %d not cold: %+v", i, c.Stats())
		}
		if lvl := c.Access(0x1000, false); lvl != 4 {
			t.Errorf("clone %d kept a line (hit level %d)", i, lvl)
		}
		if c.AccessTags(0x1000) {
			t.Errorf("clone %d kept a tag line", i)
		}
	}
	if h.Stats() != (HierarchyStats{}) {
		t.Errorf("clones' accesses reached the parent: %+v", h.Stats())
	}
}

func TestHierarchyWriteBack(t *testing.T) {
	h := NewX86Hierarchy()
	h.WriteBack()
	h.WriteBack()
	want := HierarchyStats{DRAMWriteBytes: 2 * LineSize, OffCoreBytes: 2 * LineSize}
	if h.Stats() != want {
		t.Errorf("stats after two write-backs: %+v, want %+v", h.Stats(), want)
	}
}
