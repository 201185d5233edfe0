package revoke

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Config selects the sweep implementation.
type Config struct {
	// Kernel selects the inner-loop implementation (timing only; all
	// kernels revoke identically).
	Kernel sim.Kernel `json:"kernel,omitempty"`

	// UseCapDirty restricts the sweep to PTE-CapDirty pages (§3.4.2).
	UseCapDirty bool `json:"use_cap_dirty,omitempty"`

	// UseCLoadTags probes line tags and skips capability-free lines
	// (§3.4.1).
	UseCLoadTags bool `json:"use_cload_tags,omitempty"`

	// Shards is the parallel sweep width; 0 or 1 sweeps serially (§3.5).
	Shards int `json:"shards,omitempty"`

	// Launder re-cleans CapDirty pages found capability-free (§3.4.2).
	Launder bool `json:"launder,omitempty"`

	// Hierarchy, when non-nil, replays the sweep's accesses through the
	// cache model for DRAM-traffic accounting (Figure 10), for serial and
	// sharded sweeps alike: each shard replays into one of the
	// hierarchy's own cold clones (mem.Hierarchy.ShardClones) and the
	// per-level counters are merged back in shard order, so the traffic
	// totals are identical for any shard count. It is runtime state, not
	// configuration data, and is excluded from serialised campaign specs.
	Hierarchy *mem.Hierarchy `json:"-"`
}

// Stats is the event-count summary of one sweep.
type Stats struct {
	PagesTotal    uint64 `json:"pages_total"`   // mapped pages in the swept segments
	PagesSwept    uint64 `json:"pages_swept"`   // pages actually walked
	PagesSkipped  uint64 `json:"pages_skipped"` // pages excluded by CapDirty
	PageRuns      uint64 `json:"page_runs"`     // contiguous runs of swept pages
	LinesSwept    uint64 `json:"lines_swept"`   // lines whose data was examined
	LinesSkipped  uint64 `json:"lines_skipped"` // lines excluded by CLoadTags
	TagProbes     uint64 `json:"tag_probes"`    // CLoadTags probes issued
	WordsRead     uint64 `json:"words_read"`    // words examined by the kernel
	CapsFound     uint64 `json:"caps_found"`    // tagged capabilities encountered
	CapsRevoked   uint64 `json:"caps_revoked"`  // tags cleared (memory)
	RegsScanned   uint64 `json:"regs_scanned"`  // register-file entries examined
	RegsRevoked   uint64 `json:"regs_revoked"`  // register-file entries revoked
	ShadowLookups uint64 `json:"shadow_lookups"`
	PagesLaunder  uint64 `json:"pages_launder"` // CapDirty bits re-cleaned
	BytesRead     uint64 `json:"bytes_read"`    // data bytes fetched
	BytesWritten  uint64 `json:"bytes_written"` // bytes stored (revocation write-backs)

	// Traffic is the DRAM/off-core traffic this sweep generated in the
	// attached cache hierarchy (Figure 10). TrafficReplayed is the
	// explicit marker that a hierarchy was attached and the replay ran —
	// it replaced the old silent skip, where a sharded sweep with a
	// hierarchy configured simply dropped the accounting. Sharded sweeps
	// now replay per shard and merge, so the marker is true whenever
	// Config.Hierarchy was set.
	TrafficReplayed bool               `json:"traffic_replayed,omitempty"`
	Traffic         mem.HierarchyStats `json:"traffic,omitzero"`
}

// Work converts the stats into the timing model's sweep-work summary. When
// the sweep replayed through a cache hierarchy, the modelled DRAM traffic
// rides along so Machine.SweepTime can price memory time from actual line
// fills and write-backs instead of the analytic byte counts.
func (s Stats) Work(shards int) sim.SweepWork {
	if shards < 1 {
		shards = 1
	}
	w := sim.SweepWork{
		WordsProcessed: s.WordsRead,
		BytesRead:      s.BytesRead,
		BytesWritten:   s.BytesWritten,
		TagProbes:      s.TagProbes,
		PageRuns:       s.PageRuns,
		Shards:         shards,
	}
	if s.TrafficReplayed {
		w.DRAMReadBytes = s.Traffic.DRAMReadBytes
		w.DRAMWriteBytes = s.Traffic.DRAMWriteBytes
		w.TrafficModelled = true
	}
	return w
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PagesTotal += other.PagesTotal
	s.PagesSwept += other.PagesSwept
	s.PagesSkipped += other.PagesSkipped
	s.PageRuns += other.PageRuns
	s.LinesSwept += other.LinesSwept
	s.LinesSkipped += other.LinesSkipped
	s.TagProbes += other.TagProbes
	s.WordsRead += other.WordsRead
	s.CapsFound += other.CapsFound
	s.CapsRevoked += other.CapsRevoked
	s.RegsScanned += other.RegsScanned
	s.RegsRevoked += other.RegsRevoked
	s.ShadowLookups += other.ShadowLookups
	s.PagesLaunder += other.PagesLaunder
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.TrafficReplayed = s.TrafficReplayed || other.TrafficReplayed
	s.Traffic = s.Traffic.Merge(other.Traffic)
}

// Sweeper revokes dangling capabilities against a shadow map. It is not safe
// for concurrent use: its buffers are reused across sweeps, and so are the
// shard clones of Config.Hierarchy, which the hierarchy owns.
type Sweeper struct {
	mem    *mem.Memory
	shadow *shadow.Map
	cfg    Config

	// The flat slices a sweep walks are kept across sweeps: the page
	// list, the shard partition, the per-shard and merged revocation
	// lists. Campaigns sweep thousands of times over stable page-set
	// sizes, so after the first sweep these reach steady state and the
	// per-sweep allocation count stops scaling with heap size.
	pageBuf      []uint64
	partsBuf     [][]uint64
	shardRevoked [][]uint64
	revokedBuf   []uint64
}

// New returns a sweeper over m guided by the shadow map sm.
func New(m *mem.Memory, sm *shadow.Map, cfg Config) *Sweeper {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	return &Sweeper{mem: m, shadow: sm, cfg: cfg}
}

// Config returns the sweeper's configuration.
func (s *Sweeper) Config() Config { return s.cfg }

// Sweep revokes all capabilities whose base lies in painted shadow-map
// granules, covering every mapped page (or only CapDirty pages) and the
// supplied register file. Registers are updated in place: a register holding
// a revoked capability has its tag cleared, exactly like a memory word.
func (s *Sweeper) Sweep(regs []cap.Capability) (Stats, error) {
	if s.cfg.UseCapDirty {
		s.pageBuf = s.mem.AppendCapDirtyPages(s.pageBuf[:0])
	} else {
		s.pageBuf = s.mem.AppendAllPages(s.pageBuf[:0])
	}
	stats, err := s.SweepPages(slices.Values(s.pageBuf), regs)
	stats.PagesTotal = s.mem.PageCount()
	stats.PagesSkipped = stats.PagesTotal - stats.PagesSwept
	return stats, err
}

// SweepPages sweeps exactly the pages the iterator yields (sorted base
// addresses) plus the register file. The sequence is consumed in a single
// pass that counts pages, detects contiguous runs, and partitions whole
// tag-line coverage windows across the shards, so callers can feed page
// sets from any source — the simulated memory, a streamed page table —
// without materialising them twice. Stats.PagesTotal and PagesSkipped are
// the caller's to fill: this function only knows what it swept.
func (s *Sweeper) SweepPages(pages iter.Seq[uint64], regs []cap.Capability) (Stats, error) {
	var stats Stats

	// Register file first: cheap and always fully scanned (§3.3 "the
	// sweep must cover ... register files").
	for i := range regs {
		stats.RegsScanned++
		if !regs[i].Tag() {
			continue
		}
		stats.ShadowLookups++
		if s.shadow.Revoked(regs[i].Base()) {
			regs[i] = regs[i].ClearTag()
			stats.RegsRevoked++
		}
	}

	parts, swept, runs := appendPartitionByTagWindow(pages, s.cfg.Shards, s.partsBuf)
	s.partsBuf = parts
	stats.PagesSwept = swept
	stats.PageRuns = runs

	revoked, err := s.sweepSharded(parts, &stats)
	if err != nil {
		return stats, err
	}

	// Apply revocations: clear tags. The write traffic was already
	// replayed at discovery time, inside the shard that found each
	// capability (see sweepOnePage), so the hierarchy is not touched here.
	for _, addr := range revoked {
		if err := s.mem.ClearTag(addr); err != nil {
			return stats, fmt.Errorf("revoke: clearing tag at %#x: %w", addr, err)
		}
	}
	stats.CapsRevoked = uint64(len(revoked))
	stats.BytesWritten += uint64(len(revoked)) * mem.GranuleSize
	if s.cfg.Kernel == sim.KernelVector {
		// The vectorised kernel stores every line back
		// unconditionally (§6.2), trading branches for copy traffic.
		stats.BytesWritten = stats.LinesSwept * mem.LineSize
	}

	if s.cfg.Launder {
		// Walk the shard partition (fixed for a given page set), not the
		// original order: laundering is per-page independent, so the set
		// cleaned — and the count — is identical either way.
		for _, part := range parts {
			for _, base := range part {
				cleaned, err := s.mem.LaunderCapDirty(base)
				if err != nil {
					return stats, err
				}
				if cleaned {
					stats.PagesLaunder++
				}
			}
		}
	}
	return stats, nil
}

// shardResult is one shard's private view of the sweep: its event counts,
// the revocations it discovered, and the cold hierarchy clone it replayed
// traffic into.
type shardResult struct {
	stats   Stats
	revoked []uint64
	h       *mem.Hierarchy
	err     error
}

// sweepSharded walks the partitioned page lists with cfg.Shards workers
// (§3.5: "pages to sweep can be distributed between independent threads;
// the shared shadow map is read-only during the sweep") and merges the
// per-shard results in shard-index order. One shard runs inline; more run
// as goroutines, each reading memory and the shadow map concurrently and
// replaying traffic into its own cold hierarchy clone. Revocations are
// applied serially by the caller.
//
// Determinism: partitionByTagWindow keeps every tag-line coverage window
// inside one shard and the replay has no cross-line reuse, so the merged
// stats — traffic included — are byte-identical for any shard count.
func (s *Sweeper) sweepSharded(parts [][]uint64, stats *Stats) ([]uint64, error) {
	shards := len(parts)
	results := make([]shardResult, shards)
	for len(s.shardRevoked) < shards {
		s.shardRevoked = append(s.shardRevoked, nil)
	}
	for i := range results {
		results[i].revoked = s.shardRevoked[i][:0]
	}
	if s.cfg.Hierarchy != nil {
		for i, h := range s.cfg.Hierarchy.ShardClones(shards) {
			results[i].h = h
		}
	}

	runShard := func(i int) {
		r := &results[i]
		for _, base := range parts[i] {
			if err := s.sweepOnePage(base, &r.stats, &r.revoked, r.h); err != nil {
				r.err = err
				return
			}
		}
	}
	if shards == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runShard(i)
			}(i)
		}
		wg.Wait()
	}

	// Merge, ordered by shard index. Every merge step is commutative and
	// associative, so the order is a convention, not a correctness
	// requirement — but fixing it keeps the walk canonical.
	revoked := s.revokedBuf[:0]
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		stats.Add(results[i].stats)
		revoked = append(revoked, results[i].revoked...)
		s.shardRevoked[i] = results[i].revoked // keep any growth for reuse
		if s.cfg.Hierarchy != nil {
			stats.Traffic = stats.Traffic.Merge(results[i].h.Stats())
			s.cfg.Hierarchy.Absorb(results[i].h)
		}
	}
	s.revokedBuf = revoked
	if s.cfg.Hierarchy != nil {
		stats.TrafficReplayed = true
	}
	// Canonical ascending apply order, independent of the partitioning.
	slices.Sort(revoked)
	return revoked, nil
}

// partitionByTagWindow consumes a sorted page sequence in one pass,
// splitting it into shards by assigning whole tag-line coverage windows
// (mem.TagLineCoverage bytes, 2 pages) round-robin by window index, while
// simultaneously counting the pages and their maximal contiguous runs.
// Keeping a window's pages in one shard is what makes CLoadTags tag-cache
// behaviour — and therefore the replayed traffic — independent of the shard
// count: a tag line is only ever reused within its own window, and that
// window is walked contiguously by a single shard.
func partitionByTagWindow(pages iter.Seq[uint64], shards int) (parts [][]uint64, count, runs uint64) {
	return appendPartitionByTagWindow(pages, shards, nil)
}

// appendPartitionByTagWindow is partitionByTagWindow reusing dst's backing
// arrays (truncated, grown to shards slots as needed), so a sweeper that
// partitions every sweep stops allocating once the shapes stabilise.
func appendPartitionByTagWindow(pages iter.Seq[uint64], shards int, dst [][]uint64) (parts [][]uint64, count, runs uint64) {
	if shards < 1 {
		shards = 1
	}
	parts = dst
	if len(parts) > shards {
		parts = parts[:shards]
	}
	for len(parts) < shards {
		parts = append(parts, nil)
	}
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	window := ^uint64(0)
	idx := -1
	prev := ^uint64(0)
	for p := range pages {
		if w := p / mem.TagLineCoverage; w != window {
			window = w
			idx++
		}
		parts[idx%shards] = append(parts[idx%shards], p)
		if count == 0 || p != prev+mem.PageSize {
			runs++
		}
		prev = p
		count++
	}
	return parts, count, runs
}

// sweepOnePage walks one page, accumulating into the shard-private stats and
// revocation list. When h is non-nil every access is replayed through it:
// CLoadTags probes through the tag cache, line reads through the data
// hierarchy, and — for lines the sweep will store back (revoked lines, or
// every swept line under the unconditionally-storing vector kernel) — one
// line write-back charge at discovery time (mem.Hierarchy.WriteBack).
func (s *Sweeper) sweepOnePage(base uint64, stats *Stats, revoked *[]uint64, h *mem.Hierarchy) error {
	// One page-table lookup per page: the loops below read tags and
	// granules through the view instead of paying a map lookup per line
	// probe (PeekLineTags) and per granule (PeekWords) — up to
	// LinesPerPage + GranulesPerPage lookups a page.
	view, err := s.mem.PageView(base)
	if err != nil {
		return err
	}
	if h == nil {
		// Traffic off (Spec.Traffic == ""): no cache replay to feed, so
		// take the specialised walk with no per-line hierarchy branches.
		s.sweepPageFast(base, view, stats, revoked)
		return nil
	}
	for line := uint64(0); line < mem.LinesPerPage; line++ {
		lineAddr := base + line*mem.LineSize
		if s.cfg.UseCLoadTags {
			mask := view.LineTagMask(uint(line))
			stats.TagProbes++
			h.AccessTags(lineAddr)
			if mask == 0 {
				stats.LinesSkipped++
				continue
			}
		}
		stats.LinesSwept++
		stats.BytesRead += mem.LineSize
		h.Access(lineAddr, false)
		lineRevoked := false
		for g := uint64(0); g < mem.GranulesPerLine; g++ {
			lo, hi, tag := view.Granule(uint(line*mem.GranulesPerLine + g))
			stats.WordsRead += mem.GranuleSize / mem.WordSize
			if !tag {
				continue
			}
			stats.CapsFound++
			stats.ShadowLookups++
			if s.shadow.Revoked(cap.DecodeBase(lo, hi)) {
				*revoked = append(*revoked, lineAddr+g*mem.GranuleSize)
				lineRevoked = true
			}
		}
		if lineRevoked || s.cfg.Kernel == sim.KernelVector {
			h.WriteBack()
		}
	}
	return nil
}

// sweepPageFast is the traffic-off page walk. The event counts and the
// revocation list are byte-identical to the general walk with h == nil —
// the byte-identity suites pin this — but the loop skips straight over
// capability-free pages and lines using the page's tag metadata:
// a page with no tagged granules has closed-form counters, and a line whose
// tag mask is zero can't contribute capabilities, so only tagged granules
// are decoded.
func (s *Sweeper) sweepPageFast(base uint64, view mem.PageView, stats *Stats, revoked *[]uint64) {
	if view.CapCount() == 0 {
		if s.cfg.UseCLoadTags {
			stats.TagProbes += mem.LinesPerPage
			stats.LinesSkipped += mem.LinesPerPage
			return
		}
		stats.LinesSwept += mem.LinesPerPage
		stats.BytesRead += mem.LinesPerPage * mem.LineSize
		stats.WordsRead += mem.WordsPerPage
		return
	}
	for line := uint64(0); line < mem.LinesPerPage; line++ {
		mask := view.LineTagMask(uint(line))
		if s.cfg.UseCLoadTags {
			stats.TagProbes++
			if mask == 0 {
				stats.LinesSkipped++
				continue
			}
		}
		stats.LinesSwept++
		stats.BytesRead += mem.LineSize
		stats.WordsRead += mem.LineSize / mem.WordSize
		if mask == 0 {
			continue // untagged line: nothing to find or revoke
		}
		for g := uint64(0); g < mem.GranulesPerLine; g++ {
			if mask&(1<<g) == 0 {
				continue
			}
			lo, hi, _ := view.Granule(uint(line*mem.GranulesPerLine + g))
			stats.CapsFound++
			stats.ShadowLookups++
			if s.shadow.Revoked(cap.DecodeBase(lo, hi)) {
				*revoked = append(*revoked, base+line*mem.LineSize+g*mem.GranuleSize)
			}
		}
	}
}
