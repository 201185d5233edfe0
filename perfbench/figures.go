package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/campaign"
	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchWorkers is the pool width, worker count, client count and producer
// count of every workload: two, the core count of the hosts the figures in
// README.md were measured on.
const benchWorkers = 2

// gridSeeds is how many workload seeds each figures grid spans. The timed
// loop repeats the grid; the serial reference runs it once, which keeps the
// output check to a fraction of the measured time.
const gridSeeds = 3

// churnSpec is the Table 2 / Figure 6 grid: all 17 profiles under the
// paper's CHERIvoke variant at the reduced experiment scale, traffic model
// off. It mixes build-up-only profiles (bzip2, sjeng), huge-object profiles
// (mcf, milc) and churny ones (povray, dealII), so the heap substrate
// (allocator, page map, capability stores) does most of the work.
func churnSpec(seed uint64) campaign.Spec {
	o := experiments.Quick()
	return campaign.Spec{
		Name:          "figures-churn",
		Profiles:      workload.Names(workload.All()),
		Variants:      []campaign.Variant{campaign.PaperVariant()},
		Fractions:     []float64{o.Fraction},
		MaxLive:       []uint64{o.MaxLiveBytes},
		Seeds:         gridSeedList(seed),
		MinSweeps:     o.MinSweeps,
		ScaledStartup: true,
	}
}

// sweepSpec is a Figure 10 style grid: the x86 traffic model, a 4-shard
// sweep and three post-run image sweeps, so the sweep and the cache model
// do most of the work — the opposite balance to churnSpec.
func sweepSpec(seed uint64) campaign.Spec {
	v := campaign.PaperVariant()
	v.Revoke.Shards = 4
	return campaign.Spec{
		Name:          "figures-sweep",
		Profiles:      []string{"xalancbmk", "omnetpp", "astar", "gobmk", "hmmer", "sphinx3", "h264ref"},
		Variants:      []campaign.Variant{v},
		Fractions:     []float64{campaign.DefaultFraction},
		MaxLive:       []uint64{8 << 20},
		Seeds:         gridSeedList(seed),
		MinSweeps:     8,
		ScaledStartup: true,
		Traffic:       campaign.TrafficX86,
		ImageSweeps: []revoke.Config{
			{Kernel: sim.KernelVector},
			{Kernel: sim.KernelVector, UseCLoadTags: true},
			{Kernel: sim.KernelVector, UseCapDirty: true, Shards: 4},
		},
	}
}

func gridSeedList(seed uint64) []uint64 {
	out := make([]uint64, gridSeeds)
	for i := range out {
		out[i] = derive(seed, 0xF16, uint64(i))
	}
	return out
}

// Set-up ends with one mid-sized job of the grid, run in-process, so that
// the heap and the cache-hierarchy pool are warm before timing starts.
func runFiguresChurn(e *env) error { return runFigures(e, churnSpec(e.seed), "dealII") }
func runFiguresSweep(e *env) error { return runFigures(e, sweepSpec(e.seed), "gobmk") }

// runFigures measures a closed loop of campaign.Run calls over spec's grid,
// one grid seed per campaign round, and checks every job against a serial
// run of the same campaign. Short rounds give the throughput median many
// samples, so a few seconds of a slow shared host move it little. The
// traced run spends half its time in the loop with job spans on, then
// drives the first seed's jobs layer by layer.
func runFigures(e *env, spec campaign.Spec, warmup string) error {
	o := e.out
	var t timing
	var subs []campaign.Spec
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		subs = subs[:0]
		for _, seed := range spec.Seeds {
			sub := spec
			sub.Seeds = []uint64{seed}
			if err := sub.Validate(); err != nil {
				return err
			}
			subs = append(subs, sub)
		}
		jobs, err := subs[0].Jobs()
		if err != nil {
			return err
		}
		for _, j := range jobs {
			if j.Profile == warmup {
				if jr := campaign.ExecuteJob(subs[0], j, nil); jr.Error != "" {
					return fmt.Errorf("warm-up job: %s", jr.Error)
				}
				break
			}
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
	}

	budget := e.runFor()
	if e.traced {
		budget /= 2
	}
	var rounds [][]campaign.JobResult
	sampler := startHeapSampler(10 * time.Millisecond)
	alloc0 := heapAllocBytes()
	start := time.Now()
	for len(rounds) < len(subs) || time.Since(start) < budget || (!e.traced && len(t.lat) < minOps) {
		sub := subs[len(rounds)%len(subs)]
		roundStart := time.Now()
		r := &timedRunner{tr: e.tracer, round: len(rounds)}
		if e.tracer != nil {
			r.parent = e.tracer.Begin("campaign.run", 0, fmt.Sprintf("round%d", len(rounds)))
		}
		res, err := campaign.Run(e.ctx, sub, campaign.RunOptions{Workers: benchWorkers, Runner: r})
		if e.tracer != nil {
			e.tracer.End(r.parent)
		}
		if err != nil {
			return err
		}
		wall := time.Since(roundStart).Seconds()
		rounds = append(rounds, res.Jobs)
		t.lat = append(t.lat, r.lat...)
		events := 0.0
		for _, jr := range res.Jobs {
			events += float64(jr.Mallocs + jr.Frees)
		}
		t.events += events
		t.opRates = append(t.opRates, float64(len(res.Jobs))/wall)
		t.eventRates = append(t.eventRates, events/wall)
	}
	t.elapsed = time.Since(start).Seconds()
	t.allocB = heapAllocBytes() - alloc0
	t.peakB = sampler.Stop()

	// The reference: each round's campaign on one worker, outside the
	// timed loop.
	refs := make([][][]byte, len(subs))
	var digestParts [][]byte
	var sweeps, revoked, frees uint64
	for i, sub := range subs {
		ref, err := campaign.Run(e.ctx, sub, campaign.RunOptions{Workers: 1})
		if err != nil {
			return err
		}
		for _, jr := range ref.Jobs {
			b, err := json.Marshal(jr)
			if err != nil {
				return err
			}
			refs[i] = append(refs[i], b)
			if jr.Error != "" {
				o.fail("reference job %d (%s): %s", jr.Job.ID, jr.Job.Profile, jr.Error)
			}
		}
		var buf bytes.Buffer
		if err := ref.WriteJSON(&buf); err != nil {
			return err
		}
		digestParts = append(digestParts, buf.Bytes())
		sweeps += ref.Summary.TotalSweeps
		revoked += ref.Summary.TotalCapsRevoked
		frees += ref.Summary.TotalFrees
	}
	for r, round := range rounds {
		want := refs[r%len(subs)]
		for i, jr := range round {
			o.attempted++
			got, err := json.Marshal(jr)
			switch {
			case err != nil:
				o.fail("round %d job %d: encoding result: %v", r, i, err)
			case jr.Error != "":
				o.fail("round %d job %d (%s): %s", r, i, jr.Job.Profile, jr.Error)
			case i >= len(want) || !bytes.Equal(got, want[i]):
				o.fail("round %d job %d (%s): result differs from the serial run", r, i, jr.Job.Profile)
			}
		}
	}
	o.note("sim digest (sha256 of the serial results)", digest(digestParts...), "")
	o.note("sim sweeps / caps revoked / frees", fmt.Sprintf("%d / %d / %d", sweeps, revoked, frees), "")
	o.note("campaign rounds", len(rounds), "count")

	if !e.traced {
		o.endToEndMetrics(t, "job")
		o.note("jobs_per_s", o.metrics["ops_per_s"], "1/s")
		o.note("job_s_p50", o.metrics["op_s_p50"], "s")
		o.note("job_s_p90", o.metrics["op_s_p90"], "s")
		o.note("host_alloc_mb_per_job", o.metrics["host_alloc_mb_per_op"], "MB")
		o.note("error_rate", ratio(float64(o.failed), float64(o.attempted)), "")
		return nil
	}
	campaignLayer(e)
	jobs, err := subs[0].Jobs()
	if err != nil {
		return err
	}
	return traceJobs(e, subs[0], jobs)
}

// digest fingerprints simulated outputs for the report.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// timedRunner is the campaign.RunOptions.Runner seam: it runs each job
// in-process exactly as the pool would, timing it (and, when traced,
// recording a job span under the campaign's span).
type timedRunner struct {
	tr     *Tracer
	parent int
	round  int
	mu     sync.Mutex
	lat    []float64
}

func (r *timedRunner) RunJob(_ context.Context, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	id := 0
	if r.tr != nil {
		id = r.tr.Begin("campaign.job", r.parent, fmt.Sprintf("round%d/job%d", r.round, job.ID))
	}
	start := time.Now()
	jr := campaign.ExecuteJob(spec, job, nil)
	d := time.Since(start).Seconds()
	if r.tr != nil {
		r.tr.End(id)
	}
	r.mu.Lock()
	r.lat = append(r.lat, d)
	r.mu.Unlock()
	return jr, nil
}

// campaignLayer derives the campaign pool's metrics from the loop's spans.
func campaignLayer(e *env) {
	ix := indexSpans(e.tracer.Spans())
	var jobMS, tailMS []float64
	busy, wall := int64(0), int64(0)
	campaigns := ix.named("campaign.run")
	for _, c := range campaigns {
		js := ix.childrenNamed(c, "campaign.job")
		var ends []int64
		for _, j := range js {
			jobMS = append(jobMS, float64(j.Dur())/1e6)
			ends = append(ends, j.End)
		}
		busy += totalNS(js)
		wall += c.Dur()
		// The pool is short of work from the moment the first worker
		// finishes its last job: the second-latest job end.
		if len(ends) >= 2 {
			sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
			tailMS = append(tailMS, float64(c.End-ends[len(ends)-2])/1e6)
		}
	}
	m := e.out.metrics
	m["campaign.job_ms"] = median(jobMS)
	m["campaign.pool_busy_ratio"] = ratio(float64(busy), float64(benchWorkers)*float64(wall))
	m["campaign.tail_ms"] = median(tailMS)
	e.out.note("campaigns traced", len(campaigns), "count")
}

// jobConfig rebuilds the job's system configuration from the job's public
// fields, the way campaign.ExecuteJob does; the pass checks in traceJob fail if
// the two ever diverge.
func jobConfig(spec campaign.Spec, job campaign.Job) (core.Config, workload.Profile, workload.Options, error) {
	p, ok := workload.ByName(job.Profile)
	if !ok {
		return core.Config{}, p, workload.Options{}, fmt.Errorf("unknown profile %q", job.Profile)
	}
	wopts := workload.Options{Seed: job.Seed, MaxLiveBytes: job.MaxLiveBytes, MinSweeps: job.MinSweeps, MaxEvents: job.MaxEvents}
	cfg := core.Config{
		Policy:          quarantine.Policy{Fraction: job.Fraction, MinBytes: job.QuarantineMinBytes},
		Revoke:          job.Variant.Revoke,
		DirectFree:      job.Variant.DirectFree,
		ConcurrentSweep: job.Variant.ConcurrentSweep,
		UnmapLarge:      job.Variant.UnmapLarge,
		Alloc:           alloc.Options{TypedReuse: job.Variant.TypedReuse},
	}
	cfg.Revoke.Hierarchy = nil
	if job.Traffic == campaign.TrafficX86 {
		cfg.Revoke.Hierarchy = mem.NewX86Hierarchy()
	} else if job.Traffic != "" {
		return cfg, p, wopts, fmt.Errorf("traced passes support the x86 traffic model only, not %q", job.Traffic)
	}
	if job.ScaledStartup {
		m := sim.X86()
		m.SweepStartup *= workload.Scale(p, wopts)
		cfg.Machine = m
	}
	return cfg, p, wopts, nil
}

// eventSink captures a generated run's events for the replay pass.
type eventSink struct{ events []workload.TraceEvent }

func (s *eventSink) WriteEvent(ev workload.TraceEvent) error {
	s.events = append(s.events, ev)
	return nil
}

func (s *eventSink) Close() error { return nil }

// revokeHooks brackets every revocation of a system with a core.revoke
// span. With probe set, each revocation first repaints the full quarantine
// into a scratch shadow map to time shadow painting; that probe is its own
// span, outside the revocation span.
type revokeHooks struct {
	tr     *Tracer
	parent int
	req    string
	probe  bool
	open   int64
	inCall []Span // revocation spans since the replay's current call began

	paintNS     int64
	paintChunks int64
	shadowStats shadow.Stats
	err         error
}

func (h *revokeHooks) install(cfg *core.Config) {
	cfg.PreSweep = h.preSweep
	cfg.OnRevoke = h.onRevoke
}

func (h *revokeHooks) preSweep(s *core.System) {
	if h.probe {
		p0 := h.tr.Now()
		chunks := s.Quarantine().Chunks()
		scratch, err := shadow.New(s.Shadow().Base(), s.Shadow().Limit()-s.Shadow().Base())
		if err != nil && h.err == nil {
			h.err = err
		}
		if err == nil {
			paint0 := h.tr.Now()
			for _, ch := range chunks {
				if err := scratch.Paint(ch.Addr, ch.Size); err != nil && h.err == nil {
					h.err = err
				}
			}
			h.paintNS += h.tr.Now() - paint0
			h.paintChunks += int64(len(chunks))
			st := scratch.Stats()
			h.shadowStats.BitStores += st.BitStores
			h.shadowStats.WordStores += st.WordStores
		}
		h.tr.Add(Span{Parent: h.parent, Name: "shadow.paint_probe", Req: h.req, Start: p0, End: h.tr.Now()})
	}
	h.open = h.tr.Now()
}

func (h *revokeHooks) onRevoke(core.Report) {
	s := Span{Parent: h.parent, Name: "core.revoke", Req: h.req, Start: h.open, End: h.tr.Now()}
	h.tr.Add(s)
	h.inCall = append(h.inCall, s)
}

// rollup accumulates one call kind of the replay pass.
type rollup struct{ count, total, self int64 }

func (r *rollup) add(total, self int64) {
	r.count++
	r.total += total
	r.self += self
}

// passTotals sums the counters the traced passes read from the program
// after each pass.
type passTotals struct {
	jobs                     int
	allocMallocs, binRescans uint64
	heapGrows, pagesMapped   uint64
	qInserts, qDrained       uint64
	cacheAccesses            uint64
	paintNS, paintChunks     int64
	shadowBits, shadowWords  uint64
	malloc, storeCap, free   rollup
	imgBytes, imgCachedLines uint64
	imgPlainNS, imgCachedNS  int64
	// runUntracedNS times pass A without its hooks; replayTimedNS and
	// replayUntimedNS time pass B with and without its per-call clock reads.
	runUntracedNS                  int64
	replayTimedNS, replayUntimedNS int64
}

// traceJobs runs the traced per-layer passes over jobs and derives the
// per-layer metrics from its spans.
func traceJobs(e *env, spec campaign.Spec, jobs []campaign.Job) error {
	var d passTotals
	for _, job := range jobs {
		if err := traceJob(e, spec, job, &d); err != nil {
			return fmt.Errorf("traced job %d (%s): %w", job.ID, job.Profile, err)
		}
	}
	clock := clockOverheadNS(e.tracer)
	d.malloc, d.storeCap, d.free = d.malloc.net(clock), d.storeCap.net(clock), d.free.net(clock)
	ix := indexSpans(e.tracer.Spans())
	runNS, revokeNS, revokeN, specImgNS := int64(0), int64(0), 0, int64(0)
	for _, run := range ix.named("workload.run") {
		runNS += selfTime(run, ix.childrenNamed(run, "shadow.paint_probe"))
		revokes := ix.childrenNamed(run, "core.revoke")
		revokeNS += totalNS(revokes)
		revokeN += len(revokes)
	}
	for _, s := range ix.named("revoke.image_sweep.spec") {
		specImgNS += s.Dur()
	}
	total := float64(runNS + specImgNS)
	jobsF := float64(d.jobs)
	replayCore := float64(d.malloc.total + d.storeCap.total + d.free.total)
	m := e.out.metrics
	m["workload.run_s"] = float64(runNS) / 1e9 / jobsF
	m["workload.generate_s"] = (float64(runNS) - replayCore) / 1e9 / jobsF
	m["workload.generate_share"] = (float64(runNS) - replayCore) / total
	m["core.malloc_ns"] = ratio(float64(d.malloc.self), float64(d.malloc.count))
	m["core.malloc_share"] = float64(d.malloc.self) / total
	m["core.free_ns"] = ratio(float64(d.free.self), float64(d.free.count))
	m["core.free_share"] = float64(d.free.self) / total
	m["core.revoke_ms"] = ratio(float64(revokeNS)/1e6, float64(revokeN))
	m["core.revoke_share"] = float64(revokeNS) / total
	m["alloc.bin_rescans_per_malloc"] = ratio(float64(d.binRescans), float64(d.allocMallocs))
	m["alloc.heap_grows"] = float64(d.heapGrows) / jobsF
	m["mem.store_cap_ns"] = ratio(float64(d.storeCap.self), float64(d.storeCap.count))
	m["mem.store_cap_share"] = float64(d.storeCap.self) / total
	m["mem.pages_mapped"] = float64(d.pagesMapped) / jobsF
	m["mem.cache_model_ns_per_line"] = ratio(float64(d.imgCachedNS-d.imgPlainNS), float64(d.imgCachedLines))
	m["mem.cache_accesses"] = float64(d.cacheAccesses) / jobsF
	m["shadow.paint_ns_per_chunk"] = ratio(float64(d.paintNS), float64(d.paintChunks))
	m["shadow.word_store_share"] = ratio(float64(d.shadowWords), float64(d.shadowWords+d.shadowBits))
	m["quarantine.frees_per_chunk"] = ratio(float64(d.qInserts), float64(d.qDrained))
	m["revoke.sweep_gib_per_s"] = ratio(float64(d.imgBytes)/(1<<30), float64(d.imgPlainNS)/1e9)
	m["revoke.bytes_swept"] = float64(d.imgBytes)
	m["revoke.image_sweep_share"] = float64(specImgNS) / total
	// The traced run's overhead has two parts: pass A's revocation
	// brackets against the same run without hooks, and pass B's per-call
	// clock reads against the same replay untimed. trace_overhead is their
	// geometric mean.
	overheadA := ratio(float64(runNS), float64(d.runUntracedNS))
	overheadB := ratio(float64(d.replayTimedNS), float64(d.replayUntimedNS))
	m["trace_overhead"] = math.Sqrt(overheadA * overheadB)
	e.out.note("trace overhead pass A / pass B", fmt.Sprintf("%.3f / %.3f", overheadA, overheadB), "")
	e.out.note("traced jobs (first grid seed)", d.jobs, "count")
	e.out.note("clock reading cost subtracted per call", clock, "ns")
	e.out.note("pass B calls malloc / store_cap / free", fmt.Sprintf("%d / %d / %d", d.malloc.count, d.storeCap.count, d.free.count), "")
	e.out.note("share of job time: generate+malloc+store_cap+free+revoke+image", fmt.Sprintf("%.3f+%.3f+%.3f+%.3f+%.3f+%.3f",
		m["workload.generate_share"], m["core.malloc_share"], m["mem.store_cap_share"], m["core.free_share"],
		m["core.revoke_share"], m["revoke.image_sweep_share"]), "")
	return nil
}

// traceJob runs one job through the traced passes: an untraced
// campaign.ExecuteJob for reference, pass A (workload.Run on a system built
// from the job, revocations bracketed by hooks), pass B (the same events
// replayed call by call), and post-run image sweeps with and without the
// cache model. Each pass is also run once uninstrumented, to measure the
// instrumentation's overhead. Every pass must reproduce the untraced job's
// statistics.
func traceJob(e *env, spec campaign.Spec, job campaign.Job, d *passTotals) error {
	tr := e.tracer
	req := fmt.Sprintf("job%d", job.ID)
	root := tr.Begin("job", 0, req)
	defer tr.End(root)
	d.jobs++
	e.out.attempted++

	// Capture the events for pass B (untimed). It runs first so that the
	// untraced reference and pass A after it start from the same warm heap.
	cfg, p, wopts, err := jobConfig(spec, job)
	if err != nil {
		return err
	}
	id := tr.Begin("workload.capture", root, req)
	sink := &eventSink{}
	capSys, err := core.New(cfg)
	if err != nil {
		return err
	}
	wopts.Stream = sink
	if _, err := workload.Run(capSys, p, wopts); err != nil {
		return err
	}
	wopts.Stream = nil
	tr.End(id)

	id = tr.Begin("campaign.execute_job", root, req)
	ref := campaign.ExecuteJob(spec, job, nil)
	tr.End(id)
	if ref.Error != "" {
		return fmt.Errorf("untraced job: %s", ref.Error)
	}
	want, err := json.Marshal(ref.Stats)
	if err != nil {
		return err
	}
	checkStats := func(pass string, st core.Stats) {
		got, err := json.Marshal(st)
		if err != nil || !bytes.Equal(got, want) {
			e.out.fail("%s %s: traced %s core.Stats differ from the untraced job", req, job.Profile, pass)
		}
	}

	// Pass A: the generated run, first untraced (the reference for the
	// overhead of the brackets), then with revocations bracketed and the
	// paint probed.
	cfg, _, _, err = jobConfig(spec, job)
	if err != nil {
		return err
	}
	sys0, err := core.New(cfg)
	if err != nil {
		return err
	}
	a0 := time.Now()
	if _, err := workload.Run(sys0, p, wopts); err != nil {
		return err
	}
	d.runUntracedNS += int64(time.Since(a0))
	checkStats("untraced pass A", sys0.Stats())
	cfg, _, _, err = jobConfig(spec, job)
	if err != nil {
		return err
	}
	passA := tr.Begin("workload.run", root, req)
	hooksA := &revokeHooks{tr: tr, parent: passA, req: req, probe: true}
	hooksA.install(&cfg)
	sysA, err := core.New(cfg)
	if err != nil {
		return err
	}
	if _, err := workload.Run(sysA, p, wopts); err != nil {
		return err
	}
	tr.End(passA)
	if hooksA.err != nil {
		return hooksA.err
	}
	checkStats("pass A", sysA.Stats())
	as := sysA.Allocator().Stats()
	qs := sysA.Quarantine().Stats()
	d.allocMallocs += as.Mallocs
	d.binRescans += as.BinRescans
	d.heapGrows += as.HeapGrows
	d.qInserts += qs.Inserts
	d.qDrained += qs.DrainedOut
	d.pagesMapped += sysA.Mem().PageCount()
	if h := cfg.Revoke.Hierarchy; h != nil {
		l1 := h.Levels()[0]
		d.cacheAccesses += l1.Hits + l1.Misses
	}
	d.paintNS += hooksA.paintNS
	d.paintChunks += hooksA.paintChunks
	d.shadowBits += hooksA.shadowStats.BitStores
	d.shadowWords += hooksA.shadowStats.WordStores

	// Image sweeps of the final heap: the spec's own (what ExecuteJob
	// runs), or for a grid without any, the variant's sweep without
	// laundering (laundering would change the heap under later sweeps).
	configs := spec.ImageSweeps
	name := "revoke.image_sweep.spec"
	if len(configs) == 0 {
		c := job.Variant.Revoke
		c.Launder, c.Hierarchy = false, nil
		configs = []revoke.Config{c}
		name = "revoke.image_sweep"
	}
	for i, c := range configs {
		s0 := tr.Now()
		st, err := revoke.New(sysA.Mem(), sysA.Shadow(), c).Sweep(nil)
		if err != nil {
			return err
		}
		s1 := tr.Now()
		tr.Add(Span{Parent: root, Name: name, Req: req, Start: s0, End: s1})
		c.Hierarchy = mem.NewX86Hierarchy()
		c0 := tr.Now()
		stc, err := revoke.New(sysA.Mem(), sysA.Shadow(), c).Sweep(nil)
		if err != nil {
			return err
		}
		c1 := tr.Now()
		tr.Add(Span{Parent: root, Name: "revoke.image_sweep+cache_model", Req: req, Start: c0, End: c1})
		d.imgPlainNS += s1 - s0
		d.imgCachedNS += c1 - c0
		d.imgBytes += st.BytesRead
		d.imgCachedLines += stc.LinesSwept
		plain, _ := json.Marshal(st)
		stc.Traffic, stc.TrafficReplayed = mem.HierarchyStats{}, false
		if cached, _ := json.Marshal(stc); !bytes.Equal(plain, cached) {
			e.out.fail("%s %s: image sweep %d differs with the cache model attached", req, job.Profile, i)
		}
		if len(spec.ImageSweeps) > 0 {
			if i >= len(ref.ImageSweeps) {
				e.out.fail("%s %s: untraced job has %d image sweeps, want %d", req, job.Profile, len(ref.ImageSweeps), len(configs))
				continue
			}
			if w, _ := json.Marshal(ref.ImageSweeps[i]); !bytes.Equal(plain, w) {
				e.out.fail("%s %s: traced image sweep %d differs from the untraced job", req, job.Profile, i)
			}
		}
	}

	// Pass B: replay the captured events through the public calls, first
	// untimed (the reference for the per-call timing's overhead), then with
	// every call timed.
	cfg, _, _, err = jobConfig(spec, job)
	if err != nil {
		return err
	}
	sys0, err = core.New(cfg)
	if err != nil {
		return err
	}
	b0 := time.Now()
	if err := replayCalls(sys0, sink.events, nil); err != nil {
		return err
	}
	d.replayUntimedNS += int64(time.Since(b0))
	checkStats("untimed pass B", sys0.Stats())

	cfg, _, _, err = jobConfig(spec, job)
	if err != nil {
		return err
	}
	passB := tr.Begin("workload.replay", root, req)
	calls := &callTimer{tr: tr, hooks: &revokeHooks{tr: tr, parent: passB, req: req}}
	calls.hooks.install(&cfg)
	sysB, err := core.New(cfg)
	if err != nil {
		return err
	}
	b1 := time.Now()
	if err := replayCalls(sysB, sink.events, calls); err != nil {
		return err
	}
	d.replayTimedNS += int64(time.Since(b1))
	tr.End(passB)
	checkStats("pass B", sysB.Stats())
	for _, r := range []struct {
		name string
		r    rollup
	}{{"core.malloc", calls.malloc}, {"mem.store_cap", calls.storeCap}, {"core.free", calls.free}} {
		tr.AddRollup(Rollup{Name: r.name, Req: req, Count: r.r.count, Total: r.r.total, SelfNS: r.r.self})
	}
	d.malloc.merge(calls.malloc)
	d.storeCap.merge(calls.storeCap)
	d.free.merge(calls.free)
	return nil
}

// callTimer times each call of a replay, net of the revocations nested in
// a free (hooks brackets them).
type callTimer struct {
	tr                     *Tracer
	hooks                  *revokeHooks
	malloc, storeCap, free rollup
}

// replayCalls replays captured events through core.System.Malloc,
// mem.Memory.StoreCap and core.System.FreeAddr. With calls nil no clock is
// read.
func replayCalls(sys *core.System, events []workload.TraceEvent, calls *callTimer) error {
	var t0 int64
	caps := make([]cap.Capability, 0, len(events)/2)
	for i, ev := range events {
		var err error
		switch ev.Op {
		case workload.EvMalloc:
			var c cap.Capability
			if calls != nil {
				t0 = calls.tr.Now()
				c, err = sys.Malloc(ev.Size)
				t := calls.tr.Now() - t0
				calls.malloc.add(t, t)
			} else {
				c, err = sys.Malloc(ev.Size)
			}
			caps = append(caps, c)
		case workload.EvPlant:
			c := caps[ev.Ref]
			addr := c.Base() + ev.Size
			val := c.SetAddr(addr)
			m := sys.Mem()
			if calls != nil {
				t0 = calls.tr.Now()
				err = m.StoreCap(c, addr, val)
				t := calls.tr.Now() - t0
				calls.storeCap.add(t, t)
			} else {
				err = m.StoreCap(c, addr, val)
			}
		case workload.EvFree:
			addr := caps[ev.Ref].Base()
			if calls != nil {
				calls.hooks.inCall = calls.hooks.inCall[:0]
				t0 = calls.tr.Now()
				err = sys.FreeAddr(addr)
				t1 := calls.tr.Now()
				calls.free.add(t1-t0, selfTime(Span{Start: t0, End: t1}, calls.hooks.inCall))
			} else {
				err = sys.FreeAddr(addr)
			}
		default:
			err = fmt.Errorf("unknown op %q", ev.Op)
		}
		if err != nil {
			return fmt.Errorf("replay event %d: %w", i, err)
		}
	}
	return nil
}

// net removes the cost of reading the clock twice per call, clockNS, from
// the rollup's times.
func (r rollup) net(clockNS float64) rollup {
	c := int64(clockNS * float64(r.count))
	return rollup{count: r.count, total: max(r.total-c, 0), self: max(r.self-c, 0)}
}

// clockOverheadNS is the mean length of an empty timed section on the
// tracer's clock.
func clockOverheadNS(tr *Tracer) float64 {
	const n = 200000
	var total int64
	for i := 0; i < n; i++ {
		t0 := tr.Now()
		total += tr.Now() - t0
	}
	return float64(total) / n
}

func (r *rollup) merge(o rollup) {
	r.count += o.count
	r.total += o.total
	r.self += o.self
}
