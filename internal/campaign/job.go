package campaign

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/workload"
)

// JobResult carries everything the figure and table aggregations need from
// one job, as plain serialisable values: the live *core.System never leaves
// the job.
type JobResult struct {
	Job   Job    `json:"job"`
	Error string `json:"error,omitempty"`

	// Run volume.
	AppSeconds float64 `json:"app_seconds"`
	Mallocs    uint64  `json:"mallocs"`
	Frees      uint64  `json:"frees"`
	FreedBytes uint64  `json:"freed_bytes"`
	Scale      float64 `json:"scale"`

	// Measured Table 2 quantities (per-sweep averages).
	MeasuredPageDensity float64 `json:"measured_page_density"`
	MeasuredLineDensity float64 `json:"measured_line_density"`
	MeasuredFreeRateMiB float64 `json:"measured_free_rate_mib"`
	MeasuredFreesPerSec float64 `json:"measured_frees_per_sec"`

	// Final heap-image densities (Figure 8a's core-dump measurement).
	FinalPageDensity float64 `json:"final_page_density"`
	FinalLineDensity float64 `json:"final_line_density"`

	// Footprint and heap geometry.
	PeakFootprint uint64 `json:"peak_footprint"`
	HeapBytes     uint64 `json:"heap_bytes"`
	LiveBytes     uint64 `json:"live_bytes"`

	// System activity and simulated-time decomposition.
	Stats              core.Stats `json:"stats"`
	CacheEffectSeconds float64    `json:"cache_effect_seconds"`
	SweepTrafficBytes  uint64     `json:"sweep_traffic_bytes"`

	// Traffic is the cache-hierarchy DRAM-traffic report (Spec.Traffic):
	// the job-owned hierarchy's totals over every sweep of the run, plus
	// per-level hit/miss/write-back counters.
	Traffic *TrafficReport `json:"traffic,omitempty"`

	// TraceHash is the full content hash of the streamed trace a
	// TraceRef job replayed, as resolved by the trace opener — artifacts
	// name the exact input bytes, not just the (possibly abbreviated)
	// ref.
	TraceHash string `json:"trace_hash,omitempty"`

	// Figure 6 cumulative bars (normalised execution time).
	QuarantineOnly float64 `json:"quarantine_only"`
	PlusShadow     float64 `json:"plus_shadow"`
	PlusSweep      float64 `json:"plus_sweep"`

	// Matched direct-free comparison (Spec.Baseline).
	BaselinePeakFootprint uint64  `json:"baseline_peak_footprint,omitempty"`
	MemoryOverhead        float64 `json:"memory_overhead,omitempty"`

	// Post-run image sweeps.
	ImageSweepSelf *revoke.Stats  `json:"image_sweep_self,omitempty"`
	ImageSweeps    []revoke.Stats `json:"image_sweeps,omitempty"`
}

// TrafficReport is one job's DRAM-traffic accounting, measured on the cache
// hierarchy the job owns.
type TrafficReport struct {
	Model string `json:"model"` // TrafficX86 or TrafficCHERI
	mem.HierarchyStats
	Levels []mem.LevelStats `json:"levels"`
}

// hierarchyPools recycles the job-owned cache hierarchies across campaign
// jobs, one pool per traffic model. A pooled hierarchy keeps the shard
// clones its sweeps replay into (mem.Hierarchy.ShardClones), so a
// steady-state job allocates no cache metadata. HierarchyPool.Put resets to
// the cold state the constructor produces, so a pooled job is byte-identical
// to one with a fresh hierarchy (the campaign determinism suites pin this).
// sync.Pool underneath makes it safe for the worker pool.
var hierarchyPools = map[string]*mem.HierarchyPool{
	TrafficX86:   mem.NewHierarchyPool(mem.NewX86Hierarchy),
	TrafficCHERI: mem.NewHierarchyPool(mem.NewCHERIHierarchy),
}

// acquireHierarchy returns a cold job-owned hierarchy for a traffic model
// name (validated by Spec.Jobs), nil when traffic modelling is off. Pair
// with releaseHierarchy when the job is done measuring.
func acquireHierarchy(model string) *mem.Hierarchy {
	if p, ok := hierarchyPools[model]; ok {
		return p.Get()
	}
	return nil
}

// releaseHierarchy returns a job's hierarchy to its model's pool; nil (or an
// unknown model) is a no-op, so callers release unconditionally.
func releaseHierarchy(model string, h *mem.Hierarchy) {
	if p, ok := hierarchyPools[model]; ok {
		p.Put(h)
	}
}

// Runtime returns the job's normalised execution time (the full CHERIvoke
// overhead bar).
func (r JobResult) Runtime() float64 { return r.PlusSweep }

// failed returns a JobResult carrying only the error.
func failed(job Job, err error) JobResult {
	return JobResult{Job: job, Error: err.Error()}
}

// jobConfig builds the job's isolated system configuration. The job owns
// its hierarchy: a hierarchy smuggled in through the variant's revoke
// config would be shared by every job in the campaign — a data race on the
// pool and a determinism leak — so it is dropped and rebuilt per job from
// the declarative Traffic model instead.
func jobConfig(job Job) core.Config {
	cfg := core.Config{
		Policy:          quarantine.Policy{Fraction: job.Fraction, MinBytes: job.QuarantineMinBytes},
		Revoke:          job.Variant.Revoke,
		DirectFree:      job.Variant.DirectFree,
		ConcurrentSweep: job.Variant.ConcurrentSweep,
		UnmapLarge:      job.Variant.UnmapLarge,
		Alloc:           alloc.Options{TypedReuse: job.Variant.TypedReuse},
	}
	cfg.Revoke.Hierarchy = acquireHierarchy(job.Traffic)
	return cfg
}

// ExecuteJob runs one fully expanded job in isolation, exactly as Run's
// worker pool would: same system construction, same measurements, same
// JobResult — byte for byte once serialised. It is the unit a remote worker
// executes on behalf of a coordinator (see internal/engine's Runner seam):
// spec supplies the job-independent plan (image sweeps, trace window) and
// is normalised here, so a spec serialised mid-campaign and re-decoded in
// another process yields identical results.
func ExecuteJob(spec Spec, job Job, traces TraceOpener) JobResult {
	return runJob(spec.withDefaults(), job, traces)
}

// runJob executes one job in isolation: it builds a fresh system from the
// job's parameters, runs the workload — generated from the job's profile,
// or streamed from the spec's trace — and measures everything the
// aggregations need. It shares no state with other jobs.
func runJob(spec Spec, job Job, traces TraceOpener) JobResult {
	if job.TraceRef != "" {
		return runTraceJob(spec, job, traces)
	}
	p, ok := workload.ByName(job.Profile)
	if !ok {
		return failed(job, fmt.Errorf("campaign: unknown profile %q", job.Profile))
	}
	wopts := workload.Options{
		Seed:         job.Seed,
		MaxLiveBytes: job.MaxLiveBytes,
		MinSweeps:    job.MinSweeps,
		MaxEvents:    job.MaxEvents,
	}
	cfg := jobConfig(job)
	// assemble copies the traffic counters out, so the hierarchy can go
	// back to the pool as soon as the job result exists.
	defer releaseHierarchy(job.Traffic, cfg.Revoke.Hierarchy)
	if job.ScaledStartup {
		m := sim.X86()
		m.SweepStartup *= workload.Scale(p, wopts)
		cfg.Machine = m
	}
	sys, err := core.New(cfg)
	if err != nil {
		return failed(job, err)
	}
	res, err := workload.Run(sys, p, wopts)
	if err != nil {
		return failed(job, err)
	}

	jr := assemble(job, sys, cfg, res)

	if job.Baseline && !job.Variant.DirectFree {
		if err := runBaseline(&jr, p, job); err != nil {
			return failed(job, err)
		}
	}
	if err := imageSweeps(spec, job, sys, &jr); err != nil {
		return failed(job, err)
	}
	return jr
}

// runTraceJob executes a TraceRef job: the referenced trace is streamed
// from the opener in bounded event windows and replayed against the job's
// system — the event sequence comes from the trace, the timing metadata
// from the job's profile (or the trace's own recorded profile for the
// TraceProfile sentinel).
func runTraceJob(spec Spec, job Job, traces TraceOpener) JobResult {
	if traces == nil {
		return failed(job, fmt.Errorf("campaign: job references trace %q but no trace opener is configured", job.TraceRef))
	}
	tr, hash, err := traces.OpenTrace(job.TraceRef)
	if err != nil {
		return failed(job, err)
	}
	defer tr.Close()
	src := workload.NewStreamingSource(tr, spec.TraceWindow)
	p := traceProfile(job, src.Header())

	cfg := jobConfig(job)
	defer releaseHierarchy(job.Traffic, cfg.Revoke.Hierarchy)
	sys, err := core.New(cfg)
	if err != nil {
		return failed(job, err)
	}
	res, err := workload.RunStream(sys, src, p)
	if err != nil {
		return failed(job, err)
	}

	jr := assemble(job, sys, cfg, res)
	jr.TraceHash = hash

	if job.Baseline && !job.Variant.DirectFree {
		if err := runTraceBaseline(&jr, spec, job, traces); err != nil {
			return failed(job, err)
		}
	}
	if err := imageSweeps(spec, job, sys, &jr); err != nil {
		return failed(job, err)
	}
	return jr
}

// traceProfile resolves the timing-metadata profile for a trace job: the
// job's explicit profile, or — for the TraceProfile sentinel — the profile
// the trace header names. A name matching no known profile yields a bare
// profile (nominal timing window), not an error: replaying foreign traces
// is the point of the ingestion pipeline.
func traceProfile(job Job, hdr workload.TraceHeader) workload.Profile {
	name := job.Profile
	if name == TraceProfile {
		name = hdr.Name
	}
	if p, ok := workload.ByName(name); ok {
		return p
	}
	if name == "" {
		name = TraceProfile
	}
	return workload.Profile{Name: name}
}

// assemble builds the JobResult common to generated and trace-driven jobs.
func assemble(job Job, sys *core.System, cfg core.Config, res workload.Result) JobResult {
	jr := JobResult{
		Job:                 job,
		AppSeconds:          res.AppSeconds,
		Mallocs:             res.Mallocs,
		Frees:               res.Frees,
		FreedBytes:          res.FreedBytes,
		Scale:               res.Scale,
		MeasuredPageDensity: res.MeasuredPageDensity,
		MeasuredLineDensity: res.MeasuredLineDensity,
		MeasuredFreeRateMiB: res.MeasuredFreeRateMiB,
		MeasuredFreesPerSec: res.MeasuredFreesPerSec,
		PeakFootprint:       res.PeakFootprint,
		HeapBytes:           sys.HeapBytes(),
		LiveBytes:           sys.LiveBytes(),
		Stats:               sys.Stats(),
		CacheEffectSeconds:  res.CacheEffectSeconds,
	}
	jr.FinalPageDensity, jr.FinalLineDensity = sys.Mem().Density()
	for _, rep := range sys.Reports() {
		jr.SweepTrafficBytes += rep.Sweep.BytesRead + rep.Sweep.BytesWritten
	}
	if h := cfg.Revoke.Hierarchy; h != nil {
		jr.Traffic = &TrafficReport{Model: job.Traffic, HierarchyStats: h.Stats(), Levels: h.Levels()}
	}
	jr.QuarantineOnly, jr.PlusShadow, jr.PlusSweep = decompose(jr.Stats, res)
	return jr
}

// imageSweeps runs the post-run image sweeps: the shadow map is empty after
// the last drain, so nothing is revoked and the heap image is unchanged.
// The launder-free ImageSweeps (enforced by Jobs) run first; the self-sweep
// runs last because a laundering variant configuration clears CapDirty bits
// on capability-free pages, which would skew any CapDirty-guided sweep
// after it.
func imageSweeps(spec Spec, job Job, sys *core.System, jr *JobResult) error {
	for _, cfg := range spec.ImageSweeps {
		st, err := revoke.New(sys.Mem(), sys.Shadow(), cfg).Sweep(nil)
		if err != nil {
			return err
		}
		jr.ImageSweeps = append(jr.ImageSweeps, st)
	}
	if spec.SweepImageSelf {
		st, err := revoke.New(sys.Mem(), sys.Shadow(), job.Variant.Revoke).Sweep(nil)
		if err != nil {
			return err
		}
		jr.ImageSweepSelf = &st
	}
	return nil
}

// decompose computes the Figure 6 cumulative bars from a run: quarantine
// only (including the cache effect), plus shadow-map maintenance, plus
// sweeping — each normalised to the simulated application time.
func decompose(st core.Stats, res workload.Result) (quarOnly, plusShadow, plusSweep float64) {
	t := res.AppSeconds
	quarDelta := (st.QuarantineSeconds - st.BaselineFreeCost + res.CacheEffectSeconds) / t
	shadowDelta := st.ShadowSeconds / t
	sweepDelta := st.SweepSeconds / t
	return 1 + quarDelta, 1 + quarDelta + shadowDelta, 1 + quarDelta + shadowDelta + sweepDelta
}

// runBaseline replays the same profile and seed against the insecure
// direct-free system, bounded to the job's event volume (sweeps never fire
// in direct mode, so the free count is the only terminator), and records
// the memory-overhead normalisation.
func runBaseline(jr *JobResult, p workload.Profile, job Job) error {
	events := int(jr.Frees)
	if events == 0 {
		events = 1
	}
	sys, err := core.New(core.Config{DirectFree: true})
	if err != nil {
		return err
	}
	res, err := workload.Run(sys, p, workload.Options{
		Seed:         job.Seed,
		MaxLiveBytes: job.MaxLiveBytes,
		MinSweeps:    1, // never reached in direct mode
		MaxEvents:    events,
	})
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	jr.BaselinePeakFootprint = res.PeakFootprint
	jr.MemoryOverhead = 1.0
	if res.PeakFootprint > 0 && jr.PeakFootprint > 0 {
		if over := float64(jr.PeakFootprint) / float64(res.PeakFootprint); over > 1 {
			jr.MemoryOverhead = over
		}
	}
	return nil
}

// runTraceBaseline is runBaseline for trace jobs: the identical event
// stream replayed against the insecure direct-free system. No event bound
// is needed — the trace is the bound.
func runTraceBaseline(jr *JobResult, spec Spec, job Job, traces TraceOpener) error {
	tr, _, err := traces.OpenTrace(job.TraceRef)
	if err != nil {
		return fmt.Errorf("baseline trace: %w", err)
	}
	defer tr.Close()
	src := workload.NewStreamingSource(tr, spec.TraceWindow)
	sys, err := core.New(core.Config{DirectFree: true})
	if err != nil {
		return err
	}
	res, err := workload.RunStream(sys, src, traceProfile(job, src.Header()))
	if err != nil {
		return fmt.Errorf("baseline replay: %w", err)
	}
	jr.BaselinePeakFootprint = res.PeakFootprint
	jr.MemoryOverhead = 1.0
	if res.PeakFootprint > 0 && jr.PeakFootprint > 0 {
		if over := float64(jr.PeakFootprint) / float64(res.PeakFootprint); over > 1 {
			jr.MemoryOverhead = over
		}
	}
	return nil
}
