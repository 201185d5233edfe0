package revoke

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestHierarchyTrafficAccounting verifies the Figure 10 plumbing: a sweep
// with a cache hierarchy attached generates DRAM and off-core traffic
// proportional to the lines it touches, and CLoadTags probes route through
// the tag cache instead of the data path.
func TestHierarchyTrafficAccounting(t *testing.T) {
	f := newFixture(t)
	// Populate every line of two pages so the sweep streams them.
	for l := uint64(0); l < 2*mem.LinesPerPage; l++ {
		f.plant(t, heapBase+l*mem.LineSize, heapBase+0x2000)
	}

	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{UseCapDirty: true, Hierarchy: h})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	traffic := h.Stats()
	if traffic.DRAMReadBytes == 0 || traffic.OffCoreBytes == 0 {
		t.Fatalf("no traffic recorded: %+v", traffic)
	}
	// A cold sweep misses on every distinct line it reads.
	if traffic.DRAMReadBytes < stats.BytesRead {
		t.Errorf("DRAM reads %d below swept bytes %d", traffic.DRAMReadBytes, stats.BytesRead)
	}

	// With CLoadTags, tag-cache traffic appears and is far smaller than
	// the data traffic it replaces (one tag line covers 8 KiB of data).
	h2 := mem.NewX86Hierarchy()
	s2 := New(f.mem, f.shadow, Config{UseCapDirty: true, UseCLoadTags: true, Hierarchy: h2})
	if _, err := s2.Sweep(nil); err != nil {
		t.Fatal(err)
	}
	if h2.Stats().TagDRAMReads == 0 {
		t.Error("no tag-table traffic with CLoadTags")
	}
	if h2.Stats().TagDRAMReads >= traffic.DRAMReadBytes {
		t.Errorf("tag traffic %d not smaller than data traffic %d",
			h2.Stats().TagDRAMReads, traffic.DRAMReadBytes)
	}
}

// TestParallelSweepReplaysHierarchy pins the fix for the old silent-skip
// footgun: a sharded sweep with a hierarchy attached used to drop traffic
// accounting entirely (the cache model was single-threaded). It now replays
// per shard into cold clones, merges, and says so via the explicit
// TrafficReplayed marker — and the per-sweep Stats.Traffic delta matches
// what landed in the hierarchy.
func TestParallelSweepReplaysHierarchy(t *testing.T) {
	f := newFixture(t)
	f.plant(t, heapBase+0x40, heapBase+0x2000)
	h := mem.NewX86Hierarchy()
	s := New(f.mem, f.shadow, Config{Shards: 4, Hierarchy: h})
	stats, err := s.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TrafficReplayed {
		t.Error("TrafficReplayed marker not set for sharded sweep with hierarchy")
	}
	if got := h.Stats(); got.DRAMReadBytes == 0 {
		t.Errorf("sharded sweep left the hierarchy untouched: %+v", got)
	}
	if stats.Traffic != h.Stats() {
		t.Errorf("per-sweep traffic %+v != hierarchy stats %+v (single sweep into a cold hierarchy)",
			stats.Traffic, h.Stats())
	}

	// Without a hierarchy the marker stays clear: traffic was not skipped,
	// it was never requested.
	plain, err := New(f.mem, f.shadow, Config{Shards: 4}).Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TrafficReplayed {
		t.Error("TrafficReplayed set without a hierarchy attached")
	}
}

// TestSweepTimeMatchesKernelAcrossConfigs sanity-checks that the priced
// sweep time responds to the work-elimination stats end to end.
func TestSweepTimeMatchesKernelAcrossConfigs(t *testing.T) {
	f := newFixture(t)
	// One capability-bearing line per page on half the pages.
	for p := uint64(0); p < 8; p++ {
		f.plant(t, heapBase+p*mem.PageSize, heapBase+0x2000)
	}
	machine := sim.CHERIFPGA()
	time := func(cfg Config) float64 {
		st, err := New(f.mem, f.shadow, cfg).Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		return machine.SweepTime(cfg.Kernel.Costs(), st.Work(1))
	}
	full := time(Config{})
	dirty := time(Config{UseCapDirty: true})
	both := time(Config{UseCapDirty: true, UseCLoadTags: true})
	if !(dirty < full) {
		t.Errorf("CapDirty %.3g not below full %.3g", dirty, full)
	}
	if !(both < dirty) {
		t.Errorf("both %.3g not below CapDirty %.3g (sparse lines)", both, dirty)
	}
}

// TestPooledHierarchySweepsCold pins that a hierarchy recycled through a
// HierarchyPool — the campaign's per-job pattern — replays a sweep exactly
// as a fresh one does: the shard clones it owns from an earlier job come
// back cold. The recycled hierarchy first sweeps a different image with 4
// shards, so every clone it keeps holds lines and dirty state.
func TestPooledHierarchySweepsCold(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tc := range shardConfigs {
			cfg := tc.cfg
			cfg.Shards = shards

			sweep := func(h *mem.Hierarchy) (Stats, []mem.LevelStats) {
				f := buildSeededHeap(t, 7, 64)
				c := cfg
				c.Hierarchy = h
				st, err := New(f.mem, f.shadow, c).Sweep(nil)
				if err != nil {
					t.Fatal(err)
				}
				return st, h.Levels()
			}
			want, wantLevels := sweep(mem.NewX86Hierarchy())

			used := mem.NewX86Hierarchy()
			other := buildSeededHeap(t, 11, 48)
			if _, err := New(other.mem, other.shadow, Config{UseCLoadTags: true, Shards: 4, Hierarchy: used}).Sweep(nil); err != nil {
				t.Fatal(err)
			}
			used.Access(heapBase, true)
			pool := mem.NewHierarchyPool(mem.NewX86Hierarchy)
			var got *mem.Hierarchy
			// sync.Pool may drop a Put (the race detector does so at
			// random), so retry until the used hierarchy comes back.
			for i := 0; i < 100 && got != used; i++ {
				pool.Put(used)
				got = pool.Get()
			}
			if got != used {
				t.Fatal("pool never returned the recycled hierarchy")
			}

			st, levels := sweep(got)
			if st != want {
				t.Errorf("%s, %d shards: pooled sweep\n got %+v\nwant %+v", tc.name, shards, st, want)
			}
			if !slices.Equal(levels, wantLevels) {
				t.Errorf("%s, %d shards: pooled levels\n got %+v\nwant %+v", tc.name, shards, levels, wantLevels)
			}
		}
	}
}

// BenchmarkSweepTraffic sweeps a fixed 2 MiB heap image with the x86 cache
// model attached and 4 shards, the figures-sweep configuration, with
// CLoadTags on and off. A warm-up sweep revokes the painted capabilities
// first, so every timed sweep walks the same image. Each sweep builds a new
// Sweeper over one long-lived hierarchy, as each campaign job builds its own
// sweeper over a pooled hierarchy, so -benchmem shows whether the shard
// clones are allocated per sweep.
func BenchmarkSweepTraffic(b *testing.B) {
	for _, tags := range []bool{false, true} {
		name := "cload-tags-off"
		if tags {
			name = "cload-tags-on"
		}
		b.Run(name, func(b *testing.B) {
			f := buildSeededHeap(b, 5, 512)
			cfg := Config{UseCLoadTags: tags, Shards: 4, Hierarchy: mem.NewX86Hierarchy()}
			if _, err := New(f.mem, f.shadow, cfg).Sweep(nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var lines uint64
			for i := 0; i < b.N; i++ {
				st, err := New(f.mem, f.shadow, cfg).Sweep(nil)
				if err != nil {
					b.Fatal(err)
				}
				lines += st.LinesSwept + st.LinesSkipped
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
		})
	}
}
