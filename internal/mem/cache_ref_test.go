package mem

import (
	"math/rand"
	"testing"
)

// refCache is a frozen, test-only copy of the original set-associative LRU
// model: one []refLine slice per set, a valid flag and a dirty flag per line,
// and a Reset that clears every line. Cache must reproduce its (hit,
// writeBack) results and counters exactly, whatever its own layout; the
// Figure 10 traffic numbers are built from nothing else.
type refCache struct {
	lineSize uint64
	sets     [][]refLine
	clock    uint64
	stats    CacheStats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	nSets := int(cfg.Size / cfg.LineSize / uint64(cfg.Ways))
	if nSets < 1 {
		nSets = 1
	}
	sets := make([][]refLine, nSets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{lineSize: cfg.LineSize, sets: sets}
}

func (c *refCache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = refLine{}
		}
	}
	c.clock = 0
	c.stats = CacheStats{}
}

func (c *refCache) Access(addr uint64, write bool) (hit, writeBack bool) {
	c.clock++
	lineAddr := addr / c.lineSize
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.stats.Hits++
			return true, false
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	writeBack = set[victim].valid && set[victim].dirty
	if writeBack {
		c.stats.WriteBacks++
	}
	set[victim] = refLine{tag: lineAddr, valid: true, dirty: write, lru: c.clock}
	return false, writeBack
}

// refGeometries are the geometries the reference test covers: every level
// of both hierarchies, and non-power-of-two ones, including a capacity too
// small for one full set.
func refGeometries() []CacheConfig {
	var cfgs []CacheConfig
	for _, h := range []struct {
		name string
		*Hierarchy
	}{{"x86", NewX86Hierarchy()}, {"cheri", NewCHERIHierarchy()}} {
		for _, c := range []*Cache{h.L1, h.L2, h.LLC, h.TagCache} {
			cfg := c.Config()
			cfg.Name = h.name + "-" + cfg.Name
			cfgs = append(cfgs, cfg)
		}
	}
	return append(cfgs,
		CacheConfig{Name: "3000-48-3", Size: 3000, LineSize: 48, Ways: 3},
		CacheConfig{Name: "7-1-1", Size: 7, LineSize: 1, Ways: 1},
		CacheConfig{Name: "96K-96-12", Size: 96 << 10, LineSize: 96, Ways: 12},
		CacheConfig{Name: "100-64-4", Size: 100, LineSize: 64, Ways: 4},
	)
}

// refStream drives c and ref with one seeded access stream, interleaving
// Reset, and fails on the first result or counter that differs. The stream
// mixes a working set twice the cache's capacity (hits, capacity misses and
// dirty evictions), a sequential walk (the sweep's shape), conflict bursts
// onto one set, and arbitrary 64-bit addresses.
func refStream(t *testing.T, cfg CacheConfig, seed int64) {
	c, ref := NewCache(cfg), newRefCache(cfg)
	r := rand.New(rand.NewSource(seed))
	nSets := uint64(len(ref.sets))
	lines := nSets * uint64(cfg.Ways)
	ops := max(20000, 4*int(lines))
	resetEvery := 2*int(lines) + 1000
	var seq uint64
	for i := 0; i < ops; i++ {
		if r.Intn(resetEvery) == 0 {
			c.Reset()
			ref.Reset()
			if c.Stats() != (CacheStats{}) {
				t.Fatalf("%s seed %d op %d: stats after Reset %+v", cfg.Name, seed, i, c.Stats())
			}
		}
		var line uint64
		switch x := r.Intn(10); {
		case x < 5:
			line = uint64(r.Int63n(int64(2 * lines)))
		case x < 7:
			seq++
			line = seq
		case x < 9:
			line = uint64(r.Intn(3)) + nSets*uint64(r.Intn(2*cfg.Ways))
		default:
			line = r.Uint64() / cfg.LineSize
		}
		addr := line*cfg.LineSize + uint64(r.Int63n(int64(cfg.LineSize)))
		write := r.Intn(10) < 3
		hit, wb := c.Access(addr, write)
		rhit, rwb := ref.Access(addr, write)
		if hit != rhit || wb != rwb {
			t.Fatalf("%s seed %d op %d: Access(%#x, %v) = (%v, %v), reference (%v, %v)",
				cfg.Name, seed, i, addr, write, hit, wb, rhit, rwb)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%s seed %d op %d: stats %+v, reference %+v", cfg.Name, seed, i, c.Stats(), ref.stats)
		}
	}
}

// TestCacheMatchesReference pins Cache to the reference model across every
// hierarchy geometry and the non-power-of-two ones.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries() {
		t.Run(cfg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				refStream(t, cfg, seed)
			}
		})
	}
}
