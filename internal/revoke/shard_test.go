package revoke

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// trafficTolerance is the permitted relative divergence between serial and
// sharded DRAM traffic. It is zero — exact equality — and that is a modelled
// guarantee, not luck: the sweep streams every swept line exactly once (no
// data-cache reuse, so cold clones and a serial walk miss identically),
// CLoadTags tag lines are only reused within their 8 KiB window and
// partitionByTagWindow keeps each window in one shard, and revocation
// write-backs are charged at discovery rather than at (partition-dependent)
// eviction. If the model ever gains cross-sweep cache warmth, this constant
// is where the documented tolerance widens.
const trafficTolerance = 0

// buildSeededHeap maps `pages` pages and plants a seeded random mix of
// capabilities, painting a seeded subset of the shadow map, so every call
// with the same seed produces an identical sweep input.
func buildSeededHeap(t testing.TB, seed int64, pages int) *fixture {
	t.Helper()
	size := uint64(pages) * mem.PageSize
	m := mem.New()
	if err := m.Map(heapBase, size); err != nil {
		t.Fatal(err)
	}
	sm, err := shadow.New(heapBase, size)
	if err != nil {
		t.Fatal(err)
	}
	root := cap.MustRoot(0, 1<<48)
	heap, err := root.SetBoundsExact(heapBase, size)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 40*pages; i++ {
		at := heapBase + uint64(r.Intn(int(size/16)))*16
		objAddr := heapBase + uint64(r.Intn(int(size/64)))*64
		obj, err := heap.SetBoundsExact(objAddr, 64)
		if err != nil {
			continue
		}
		if err := m.RawStoreCap(at, obj); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*pages; i++ {
		off := uint64(r.Intn(int(size/64))) * 64
		if err := sm.Paint(heapBase+off, 64); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{mem: m, shadow: sm, heap: heap}
}

// shardConfigs is the table of sweep configurations the invariance tests
// cover: every work-elimination assist on and off, plus the unconditionally
// storing vector kernel (whose line write-backs are also replayed).
var shardConfigs = []struct {
	name string
	cfg  Config
}{
	{"full-sweep", Config{}},
	{"cap-dirty", Config{UseCapDirty: true}},
	{"cload-tags", Config{UseCLoadTags: true}},
	{"both-assists", Config{UseCapDirty: true, UseCLoadTags: true}},
	{"vector-kernel", Config{Kernel: sim.KernelVector, UseCapDirty: true}},
	{"paper-x86", Config{Kernel: sim.KernelVector, UseCapDirty: true, Launder: true}},
}

// TestShardCountInvariance is the tentpole guarantee: on a fixed-seed heap,
// every Sweep statistic — work-elimination counts, byte counts, and the full
// replayed DRAM-traffic breakdown down to per-level hits/misses — is
// identical for 1, 2, 4 and 8 shards. Run under -race this also exercises
// the concurrent shard walkers against the shared memory and shadow map.
func TestShardCountInvariance(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for _, tc := range shardConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42} {
				type outcome struct {
					stats  Stats
					levels []mem.LevelStats
				}
				var want *outcome
				for _, shards := range shardCounts {
					f := buildSeededHeap(t, seed, 48)
					h := mem.NewX86Hierarchy()
					cfg := tc.cfg
					cfg.Shards = shards
					cfg.Hierarchy = h
					stats, err := New(f.mem, f.shadow, cfg).Sweep(nil)
					if err != nil {
						t.Fatal(err)
					}
					got := &outcome{stats: stats, levels: h.Levels()}
					if want == nil {
						want = got
						continue
					}
					if got.stats != want.stats {
						t.Errorf("seed %d, %d shards: stats diverge\n got %+v\nwant %+v",
							seed, shards, got.stats, want.stats)
					}
					for i, lvl := range got.levels {
						if lvl != want.levels[i] {
							t.Errorf("seed %d, %d shards: %s counters diverge: got %+v want %+v",
								seed, shards, lvl.Name, lvl, want.levels[i])
						}
					}
				}
			}
		})
	}
}

// TestSerialShardedTrafficEquivalence compares the serial sweep's DRAM
// traffic against an 8-way sharded sweep of the identical heap, within
// trafficTolerance (see its comment: the tolerance is exactly zero by
// construction of the replay).
func TestSerialShardedTrafficEquivalence(t *testing.T) {
	within := func(a, b uint64) bool {
		hi, lo := a, b
		if hi < lo {
			hi, lo = lo, hi
		}
		return float64(hi-lo) <= trafficTolerance*float64(hi)
	}
	for _, tc := range shardConfigs {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) mem.HierarchyStats {
				f := buildSeededHeap(t, 7, 64)
				h := mem.NewX86Hierarchy()
				cfg := tc.cfg
				cfg.Shards = shards
				cfg.Hierarchy = h
				if _, err := New(f.mem, f.shadow, cfg).Sweep(nil); err != nil {
					t.Fatal(err)
				}
				return h.Stats()
			}
			serial, sharded := run(1), run(8)
			if !within(serial.DRAMReadBytes, sharded.DRAMReadBytes) ||
				!within(serial.DRAMWriteBytes, sharded.DRAMWriteBytes) ||
				!within(serial.OffCoreBytes, sharded.OffCoreBytes) ||
				!within(serial.TagDRAMReads, sharded.TagDRAMReads) {
				t.Errorf("serial %+v vs sharded %+v beyond tolerance %v",
					serial, sharded, trafficTolerance)
			}
		})
	}
}

// TestSweepsAccumulateTraffic checks the merge across repeated sweeps into
// one long-lived hierarchy (the campaign per-job pattern): counters only
// grow, and the total equals the sum of the per-sweep deltas.
func TestSweepsAccumulateTraffic(t *testing.T) {
	f := buildSeededHeap(t, 3, 32)
	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{UseCLoadTags: true, Shards: 4, Hierarchy: h})
	var sum mem.HierarchyStats
	for i := 0; i < 3; i++ {
		stats, err := s.Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		sum = sum.Merge(stats.Traffic)
	}
	if h.Stats() != sum {
		t.Errorf("hierarchy total %+v != sum of per-sweep deltas %+v", h.Stats(), sum)
	}
}

// TestConcurrentSweepersUnderRace runs several independent sharded sweepers
// at once — the campaign worker-pool shape, where every job owns its memory,
// shadow map and hierarchy — to give the race detector cross-sweeper
// schedules on top of the intra-sweeper shard goroutines.
func TestConcurrentSweepersUnderRace(t *testing.T) {
	const sweepers = 4
	results := make([]Stats, sweepers)
	var wg sync.WaitGroup
	for i := 0; i < sweepers; i++ {
		f := buildSeededHeap(t, 99, 32)
		s := New(f.mem, f.shadow, Config{
			UseCapDirty:  true,
			UseCLoadTags: true,
			Shards:       4,
			Hierarchy:    mem.NewX86Hierarchy(),
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats, err := s.Sweep(nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = stats
		}(i)
	}
	wg.Wait()
	for i := 1; i < sweepers; i++ {
		if results[i] != results[0] {
			t.Errorf("sweeper %d diverged:\n got %+v\nwant %+v", i, results[i], results[0])
		}
	}
}

// TestPartitionByTagWindow pins the partitioning invariants directly: pages
// of one tag-line coverage window never split across shards, every page is
// assigned exactly once, and per-shard order stays ascending.
func TestPartitionByTagWindow(t *testing.T) {
	pagesPerWindow := uint64(mem.TagLineCoverage / mem.PageSize)
	if pagesPerWindow < 2 {
		t.Skip("tag windows no larger than a page; nothing to keep together")
	}
	var pages []uint64
	for p := uint64(0); p < 40; p++ {
		if p%5 == 3 { // leave holes, like a CapDirty-filtered list
			continue
		}
		pages = append(pages, heapBase+p*mem.PageSize)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		parts, _, _ := partitionByTagWindow(slices.Values(pages), shards)
		windowShard := map[uint64]int{}
		seen := map[uint64]bool{}
		total := 0
		for i, part := range parts {
			for j, p := range part {
				if j > 0 && part[j-1] >= p {
					t.Fatalf("shards=%d: shard %d not ascending at %#x", shards, i, p)
				}
				w := p / mem.TagLineCoverage
				if prev, ok := windowShard[w]; ok && prev != i {
					t.Fatalf("shards=%d: window %#x split across shards %d and %d", shards, w, prev, i)
				}
				windowShard[w] = i
				if seen[p] {
					t.Fatalf("shards=%d: page %#x assigned twice", shards, p)
				}
				seen[p] = true
				total++
			}
		}
		if total != len(pages) {
			t.Fatalf("shards=%d: %d pages assigned, want %d", shards, total, len(pages))
		}
	}
}
