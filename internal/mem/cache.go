package mem

import (
	"math/bits"
	"sync"
)

// Set-associative LRU cache model used to account DRAM traffic for the
// revocation sweep (Figure 10) and to model the tag cache that CLoadTags
// probes terminate in (§2.2, §3.4.1). The model tracks hits, misses and
// write-backs; it stores no data — correctness always comes from Memory,
// timing and traffic from this overlay.

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     uint64 // total capacity in bytes
	LineSize uint64 // line size in bytes
	Ways     int    // associativity
}

// CacheStats counts the events at one cache level.
type CacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	WriteBacks uint64 `json:"write_backs"`
}

// Merge returns the event-wise sum of s and other. Merge is a commutative
// monoid over CacheStats — associative, commutative, with the zero value as
// identity — which is what lets the sharded sweeper replay each shard's
// accesses into an independent clone and fold the per-shard counters back
// together in any grouping without changing the total.
func (s CacheStats) Merge(other CacheStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits + other.Hits,
		Misses:     s.Misses + other.Misses,
		WriteBacks: s.WriteBacks + other.WriteBacks,
	}
}

// Cache is a single set-associative, write-back, write-allocate LRU cache.
//
// The line metadata is two flat arrays indexed set*ways+way: tags holds each
// way's line address, and stamps holds the LRU clock of its last access
// shifted left one bit, with the dirty flag in bit 0. A way is valid iff its
// stamp exceeds floor, so Reset invalidates every line at once by raising
// floor past every stamp issued so far. A fill takes the first invalid way
// and nothing invalidates a single line, so the valid ways of a set are
// always a prefix of it.
type Cache struct {
	cfg    CacheConfig
	tags   []uint64
	stamps []uint64
	ways   uint64
	nSets  uint64
	// pow2 is set when both the line size and the set count are powers of
	// two: Access then shifts by lineShift and masks by nSets-1 instead of
	// dividing.
	pow2      bool
	lineShift uint
	clock     uint64
	floor     uint64
	stats     CacheStats
}

// NewCache returns a cache with the given geometry. Size must be a multiple
// of LineSize*Ways.
func NewCache(cfg CacheConfig) *Cache {
	nSets := cfg.Size / cfg.LineSize / uint64(cfg.Ways)
	if nSets < 1 {
		nSets = 1
	}
	n := nSets * uint64(cfg.Ways)
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint64, n),
		stamps:    make([]uint64, n),
		ways:      uint64(cfg.Ways),
		nSets:     nSets,
		pow2:      isPow2(cfg.LineSize) && isPow2(nSets),
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
	}
}

func isPow2(v uint64) bool { return v&(v-1) == 0 }

// Config returns the cache's geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// CloneCold returns a new cache with the same geometry, all lines invalid
// and zeroed counters.
func (c *Cache) CloneCold() *Cache { return NewCache(c.cfg) }

// AbsorbStats folds another cache's counters into this one's. Line state is
// untouched: the absorbed cache's contents describe a different (per-shard)
// access stream and have no meaningful union with this cache's lines.
func (c *Cache) AbsorbStats(s CacheStats) { c.stats = c.stats.Merge(s) }

// Reset invalidates all lines and zeroes counters. It raises floor to the
// largest stamp issued so far, dirty bit included, and touches no line.
func (c *Cache) Reset() {
	c.floor = c.clock<<1 | 1
	c.stats = CacheStats{}
}

// Access touches the line containing addr, allocating it on miss. It returns
// (hit, writeBack): writeBack is true when the allocation evicted a dirty
// line.
func (c *Cache) Access(addr uint64, write bool) (hit, writeBack bool) {
	c.clock++
	stamp := c.clock << 1
	if write {
		stamp |= 1
	}
	var line, set uint64
	if c.pow2 {
		line = addr >> c.lineShift
		set = line & (c.nSets - 1)
	} else {
		line = addr / c.cfg.LineSize
		set = line % c.nSets
	}
	lo, hi := set*c.ways, (set+1)*c.ways
	tags, stamps := c.tags[lo:hi:hi], c.stamps[lo:hi:hi]
	tags = tags[:len(stamps)]

	// One pass over the valid prefix: a hit returns, the first invalid way
	// is the fill target, and otherwise the oldest stamp is the LRU victim.
	floor := c.floor
	victim, oldest := 0, ^uint64(0)
	for i, s := range stamps {
		if s <= floor {
			victim = i
			break
		}
		if tags[i] == line {
			stamps[i] = stamp | s&1
			c.stats.Hits++
			return true, false
		}
		if s < oldest {
			victim, oldest = i, s
		}
	}
	c.stats.Misses++
	if old := stamps[victim]; old > floor && old&1 == 1 {
		writeBack = true
		c.stats.WriteBacks++
	}
	tags[victim], stamps[victim] = line, stamp
	return false, writeBack
}

// HierarchyStats aggregates traffic through a cache hierarchy.
type HierarchyStats struct {
	DRAMReadBytes  uint64 `json:"dram_read_bytes"`  // line fills from DRAM
	DRAMWriteBytes uint64 `json:"dram_write_bytes"` // dirty write-backs to DRAM
	OffCoreBytes   uint64 `json:"offcore_bytes"`    // traffic beyond L2 (shared-LLC traffic, Figure 10)
	TagDRAMReads   uint64 `json:"tag_dram_reads"`   // tag-table line fills
}

// Merge returns the counter-wise sum of s and other — the same commutative
// monoid as CacheStats.Merge, lifted to the hierarchy's traffic totals.
func (s HierarchyStats) Merge(other HierarchyStats) HierarchyStats {
	return HierarchyStats{
		DRAMReadBytes:  s.DRAMReadBytes + other.DRAMReadBytes,
		DRAMWriteBytes: s.DRAMWriteBytes + other.DRAMWriteBytes,
		OffCoreBytes:   s.OffCoreBytes + other.OffCoreBytes,
		TagDRAMReads:   s.TagDRAMReads + other.TagDRAMReads,
	}
}

// Hierarchy is the three-level data-cache hierarchy of Table 1's x86 system
// plus the CHERI tag cache. Accesses walk L1→L2→LLC; misses at the LLC fill
// from DRAM.
type Hierarchy struct {
	L1, L2, LLC *Cache
	// TagCache caches the hierarchical tag table. One tag-table line
	// covers TagLineCoverage bytes of data memory.
	TagCache *Cache
	stats    HierarchyStats
	// shards are the cold clones ShardClones hands out, kept for reuse.
	shards []*Hierarchy
}

// TagLineCoverage is the span of data memory covered by one tag-cache line:
// with one tag bit per 16-byte granule, a 64-byte tag line covers 64*8*16 =
// 8 KiB of data.
const TagLineCoverage = LineSize * 8 * GranuleSize

// NewX86Hierarchy returns the cache hierarchy of the paper's x86-64 system
// (Table 1: 8 MiB LLC), with conventional L1/L2 sizes for that part and a
// 32 KiB tag cache as in the CHERI prototypes (§2.2).
func NewX86Hierarchy() *Hierarchy {
	return &Hierarchy{
		L1:       NewCache(CacheConfig{Name: "L1D", Size: 32 << 10, LineSize: LineSize, Ways: 8}),
		L2:       NewCache(CacheConfig{Name: "L2", Size: 256 << 10, LineSize: LineSize, Ways: 8}),
		LLC:      NewCache(CacheConfig{Name: "LLC", Size: 8 << 20, LineSize: LineSize, Ways: 16}),
		TagCache: NewCache(CacheConfig{Name: "Tag$", Size: 32 << 10, LineSize: LineSize, Ways: 4}),
	}
}

// NewCHERIHierarchy returns the FPGA prototype's hierarchy (Table 1: 256 KiB
// LLC, single level below L1).
func NewCHERIHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:       NewCache(CacheConfig{Name: "L1D", Size: 16 << 10, LineSize: LineSize, Ways: 2}),
		L2:       NewCache(CacheConfig{Name: "L2", Size: 64 << 10, LineSize: LineSize, Ways: 4}),
		LLC:      NewCache(CacheConfig{Name: "LLC", Size: 256 << 10, LineSize: LineSize, Ways: 8}),
		TagCache: NewCache(CacheConfig{Name: "Tag$", Size: 32 << 10, LineSize: LineSize, Ways: 4}),
	}
}

// Stats returns the hierarchy's aggregate traffic counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// CloneCold returns a hierarchy with the same geometry at every level, all
// lines invalid and all counters zero.
func (h *Hierarchy) CloneCold() *Hierarchy {
	clone := &Hierarchy{
		L1:  h.L1.CloneCold(),
		L2:  h.L2.CloneCold(),
		LLC: h.LLC.CloneCold(),
	}
	if h.TagCache != nil {
		clone.TagCache = h.TagCache.CloneCold()
	}
	return clone
}

// ShardClones returns n cold clones of h, one per shard of a parallel sweep.
// h owns them: the next call resets and returns the same clones (growing the
// set when n grows), so a caller must Absorb each clone's counters before
// asking again. Because Reset is O(1), a hierarchy recycled through a
// HierarchyPool brings its clones with it, and a steady-state sweep
// allocates no line metadata.
//
// Approximation note (per-shard cold start vs. shared LRU): a parallel sweep
// gives each shard a cold clone instead of sharing one LRU-coherent
// hierarchy, because a shared model would make hit/miss counts depend on
// goroutine interleaving. The divergence this buys is bounded and is zero
// for the sweep access pattern itself: a sweep streams every swept line
// exactly once (no data reuse, so every data access misses a cold *and* a
// shared cache alike) and CLoadTags probes reuse a tag line only inside its
// 8 KiB coverage window, which the shard partitioning keeps within one
// shard. What the clone does forgo is warmth carried in from the
// application between sweeps — the model charges every sweep cold-cache
// streaming traffic, matching the paper's pessimistic Figure 10 accounting.
func (h *Hierarchy) ShardClones(n int) []*Hierarchy {
	for len(h.shards) < n {
		h.shards = append(h.shards, h.CloneCold())
	}
	clones := h.shards[:n]
	for _, c := range clones {
		c.Reset()
	}
	return clones
}

// Absorb merges a shard clone's counters — per-level CacheStats and the
// aggregate traffic totals — into h, leaving h's line state untouched.
// Because every counter merge is commutative and associative, absorbing the
// shards of a sweep in shard-index order yields totals independent of how
// the page list was partitioned.
func (h *Hierarchy) Absorb(shard *Hierarchy) {
	h.L1.AbsorbStats(shard.L1.stats)
	h.L2.AbsorbStats(shard.L2.stats)
	h.LLC.AbsorbStats(shard.LLC.stats)
	if h.TagCache != nil && shard.TagCache != nil {
		h.TagCache.AbsorbStats(shard.TagCache.stats)
	}
	h.stats = h.stats.Merge(shard.stats)
}

// LevelStats is one cache level's counters, labelled for artifacts.
type LevelStats struct {
	Name string `json:"name"`
	CacheStats
}

// Levels returns every level's counters in walk order (L1, L2, LLC, then the
// tag cache when present).
func (h *Hierarchy) Levels() []LevelStats {
	out := []LevelStats{
		{Name: h.L1.cfg.Name, CacheStats: h.L1.stats},
		{Name: h.L2.cfg.Name, CacheStats: h.L2.stats},
		{Name: h.LLC.cfg.Name, CacheStats: h.LLC.stats},
	}
	if h.TagCache != nil {
		out = append(out, LevelStats{Name: h.TagCache.cfg.Name, CacheStats: h.TagCache.stats})
	}
	return out
}

// Reset clears all levels and counters, in O(1) per level (see Cache.Reset).
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	if h.TagCache != nil {
		h.TagCache.Reset()
	}
	h.stats = HierarchyStats{}
}

// Access models a data access walking the hierarchy. It returns the level
// that hit: 1, 2, 3, or 4 for DRAM.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	if hit, _ := h.L1.Access(addr, write); hit {
		return 1
	}
	if hit, _ := h.L2.Access(addr, write); hit {
		return 2
	}
	h.stats.OffCoreBytes += LineSize
	hit, wb := h.LLC.Access(addr, write)
	if wb {
		h.stats.DRAMWriteBytes += LineSize
	}
	if hit {
		return 3
	}
	h.stats.DRAMReadBytes += LineSize
	return 4
}

// WriteBack charges the DRAM drain of one stored line. The sweeper uses it
// for revocation stores (and the vector kernel's unconditional line stores):
// the store itself hits in L1 — the line was examined immediately before —
// and its dirtied line is drained to DRAM exactly once when the streaming
// sweep evicts it. Charging the drain directly, instead of setting dirty
// bits and counting evictions, keeps write traffic independent of where each
// shard's walk happens to end (lines still resident at the end of a walk
// would otherwise never be counted).
func (h *Hierarchy) WriteBack() {
	h.stats.DRAMWriteBytes += LineSize
	h.stats.OffCoreBytes += LineSize
}

// AccessTags models a CLoadTags probe: it consults only the tag cache,
// filling one tag-table line from DRAM on miss. It returns true if the probe
// hit in the tag cache.
func (h *Hierarchy) AccessTags(dataAddr uint64) bool {
	if h.TagCache == nil {
		return false
	}
	tagAddr := dataAddr / TagLineCoverage * LineSize
	hit, _ := h.TagCache.Access(tagAddr, false)
	if !hit {
		h.stats.TagDRAMReads += LineSize
		h.stats.DRAMReadBytes += LineSize
		h.stats.OffCoreBytes += LineSize
	}
	return hit
}

// HierarchyPool recycles Hierarchy instances across simulation jobs. A cold
// x86 hierarchy with its sweep's shard clones is megabytes of line metadata,
// so allocating them per campaign job dominates job setup. Put resets the
// hierarchy to the cold state New produces (every line invalid, every
// counter zero), so a pooled Get is observationally identical to a fresh
// construction and the determinism suites hold bit for bit; the shard clones
// travel with it and are reset as ShardClones hands them out. Safe for
// concurrent use by campaign workers.
type HierarchyPool struct {
	// New constructs a hierarchy when the pool is empty
	// (e.g. NewX86Hierarchy).
	New  func() *Hierarchy
	pool sync.Pool
}

// NewHierarchyPool returns a pool backed by the given constructor.
func NewHierarchyPool(fresh func() *Hierarchy) *HierarchyPool {
	return &HierarchyPool{New: fresh}
}

// Get returns a cold hierarchy, reusing a pooled one when available.
func (p *HierarchyPool) Get() *Hierarchy {
	if h, ok := p.pool.Get().(*Hierarchy); ok {
		return h
	}
	return p.New()
}

// Put resets h to cold and returns it to the pool. Put(nil) is a no-op, so
// callers can release unconditionally.
func (p *HierarchyPool) Put(h *Hierarchy) {
	if h == nil {
		return
	}
	h.Reset()
	p.pool.Put(h)
}
