package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/livetrace"
	"repro/internal/server"
	"repro/internal/workload"
)

// liveProfiles are recorded at both experiment scales, giving traces from
// about 150 KB (quick xalancbmk) to 3 MB (full dealII).
var liveProfiles = []string{"xalancbmk", "omnetpp", "povray", "dealII"}

// The session cycle is four rounds. Each round streams one full-scale
// trace and then the four quick-scale ones, dealII twice, in a
// seed-shuffled order, so a cycle streams every trace and every cycle the
// same bytes. Session latency grows with trace size: the median falls well
// inside the quick dealII sessions and the p90 inside the full-scale ones,
// not on a border between two traces where it would jump from run to run.
// A run stops only at the end of a cycle, so each measures the same mix.
const liveRounds = 4

// Producers send a first chunk smaller than one analysis window, wait until
// their SSE follower is attached, then stream the rest.
const (
	liveFirstChunk = 4 << 10
	liveChunk      = 64 << 10
)

type liveTrace struct {
	name string
	full bool
	data []byte
}

func (t liveTrace) label() string {
	if t.full {
		return t.name + "/full"
	}
	return t.name + "/quick"
}

// recordTraces records the session traces from the workload seed with the
// trace codec, two at a time.
func recordTraces(seed uint64) ([]liveTrace, error) {
	var traces []liveTrace
	for _, full := range []bool{false, true} {
		for _, name := range liveProfiles {
			traces = append(traces, liveTrace{name: name, full: full})
		}
	}
	errs := make([]error, len(traces))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < benchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(traces); i = int(next.Add(1) - 1) {
				traces[i].data, errs[i] = recordTrace(traces[i], derive(seed, 0x11E, uint64(i)))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

func recordTrace(t liveTrace, seed uint64) ([]byte, error) {
	o := experiments.Quick()
	if t.full {
		o = experiments.Default()
	}
	p, ok := workload.ByName(t.name)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", t.name)
	}
	sys, err := core.New(livetrace.AnalysisConfig())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := workload.NewBinaryTraceWriter(&buf, workload.TraceHeader{Name: t.name, Seed: seed})
	if err != nil {
		return nil, err
	}
	if _, err := workload.Run(sys, p, workload.Options{Seed: seed, MaxLiveBytes: o.MaxLiveBytes, MinSweeps: o.MinSweeps, Stream: w}); err != nil {
		return nil, fmt.Errorf("recording %s: %w", t.label(), err)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sessionCycle is the order producers take traces in. The full-scale
// traces open the rounds largest first, so the cycle ends on the small
// quick sessions and the two producers finish it close together.
func sessionCycle(seed uint64, traces []liveTrace) []int {
	var quick, full []int
	for i, t := range traces {
		switch {
		case t.full:
			full = append(full, i)
		case t.name == "dealII":
			quick = append(quick, i, i)
		default:
			quick = append(quick, i)
		}
	}
	sort.SliceStable(full, func(a, b int) bool { return len(traces[full[a]].data) > len(traces[full[b]].data) })
	r := rand.New(rand.NewPCG(seed, 0x11E))
	var cycle []int
	for round := 0; round < liveRounds; round++ {
		cycle = append(cycle, full[round%len(full)])
		q := append([]int(nil), quick...)
		r.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		cycle = append(cycle, q...)
	}
	return cycle
}

// liveSession is one finished session as the producer saw it.
type liveSession struct {
	trace                int
	k                    int
	info                 livetrace.Info
	start, done          time.Time
	firstStats           time.Time // zero if no stats frame arrived
	lastStats            time.Time // the frame after the last window
	traced               bool
	sseTerminal          string
	followErr, streamErr error
}

// producer streams traces into POST /live over its own connections.
type producer struct {
	client *http.Client
	base   string
}

// session streams data as one live session and follows it over SSE. The
// clock starts with the first byte and stops when the POST response body,
// the session's final Info, has arrived.
func (p *producer) session(data []byte) (liveSession, error) {
	var s liveSession
	pr, pw := io.Pipe()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseFn()
	sent := make(chan error, 1)
	s.start = time.Now()
	go func() {
		first := min(liveFirstChunk, len(data))
		if _, err := pw.Write(data[:first]); err != nil {
			sent <- err
			return
		}
		<-release
		for off := first; off < len(data); off += liveChunk {
			if _, err := pw.Write(data[off:min(off+liveChunk, len(data))]); err != nil {
				sent <- err
				return
			}
		}
		sent <- pw.Close()
	}()
	resp, err := p.client.Post(p.base+"/live", "application/octet-stream", pr)
	if err != nil {
		pr.CloseWithError(err)
		releaseFn()
		<-sent
		return s, err
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Live-Session")
	if resp.StatusCode != http.StatusOK || id == "" {
		pr.CloseWithError(fmt.Errorf("rejected"))
		releaseFn()
		<-sent
		body, _ := io.ReadAll(resp.Body)
		return s, fmt.Errorf("POST /live: %s %s", resp.Status, strings.TrimSpace(string(body)))
	}
	attached := make(chan struct{})
	followed := make(chan error, 1)
	go func() { followed <- p.follow(id, attached, &s) }()
	<-attached
	releaseFn()
	decErr := json.NewDecoder(resp.Body).Decode(&s.info)
	s.done = time.Now()
	s.streamErr = <-sent
	s.followErr = <-followed
	if decErr != nil {
		return s, fmt.Errorf("session %s: decoding final info: %w", id, decErr)
	}
	return s, nil
}

// follow reads the session's SSE stream to its end, closing attached once
// the initial info frame has arrived (or the stream failed) and noting when
// the first stats frame came.
func (p *producer) follow(id string, attached chan struct{}, s *liveSession) error {
	var once sync.Once
	markAttached := func() { once.Do(func() { close(attached) }) }
	defer markAttached()
	resp, err := p.client.Get(p.base + "/live/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	return readSSE(resp.Body, func(event, data string) error {
		switch event {
		case "stats":
			s.lastStats = time.Now()
			if s.firstStats.IsZero() {
				s.firstStats = s.lastStats
			}
		case "info":
			var info livetrace.Info
			if err := json.Unmarshal([]byte(data), &info); err != nil {
				return fmt.Errorf("decoding info event: %w", err)
			}
			s.sseTerminal = info.State
			markAttached()
		}
		return nil
	})
}

// runLiveIngest measures two producers streaming recorded traces into one
// in-process server's POST /live, each session from its first byte to a
// reconciled done. Every session's final stats are checked against an
// off-server replay of the same bytes.
func runLiveIngest(e *env) error {
	o := e.out
	var t timing
	var traces []liveTrace
	var srv *httpServer
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(e.tmp, "live-")
		if err != nil {
			return err
		}
		start := time.Now()
		if traces, err = recordTraces(e.seed); err != nil {
			return err
		}
		if srv, err = startServer(server.Options{TraceDir: filepath.Join(dir, "traces")}); err != nil {
			return err
		}
		if err := waitHealthy(client, srv.url); err != nil {
			return err
		}
		t.setups = append(t.setups, time.Since(start).Seconds())
	}
	cycle := sessionCycle(e.seed, traces)

	var before, after scrapes
	if e.traced {
		var err error
		if before, err = scrapeAll(client, []string{srv.url}); err != nil {
			return err
		}
	}
	var mu sync.Mutex
	var sessions []liveSession
	var next atomic.Int64
	// stopAt is the first session not to start: the end of the cycle in
	// which the time ran out, and at least minOps sessions.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	var lastEnd time.Time
	var wg sync.WaitGroup
	sampler := startHeapSampler(10 * time.Millisecond)
	alloc0 := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(e.runFor())
	for w := 0; w < benchWorkers; w++ {
		p := &producer{client: newClient(), base: srv.url}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.client.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if !time.Now().Before(deadline) {
					n := max(k, minOps)
					stopAt.CompareAndSwap(math.MaxInt64, int64((n+len(cycle)-1)/len(cycle)*len(cycle)))
				}
				if int64(k) >= stopAt.Load() {
					return
				}
				ti := cycle[k%len(cycle)]
				s, err := p.session(traces[ti].data)
				s.trace, s.k, s.traced = ti, k, e.traced && k%4 < 2
				if s.traced && err == nil {
					recordSession(e.tracer, s)
				}
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("session %d (%s): %v", k, traces[ti].label(), err)
				} else {
					sessions = append(sessions, s)
				}
				lastEnd = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.elapsed = lastEnd.Sub(start).Seconds()
	t.allocB = heapAllocBytes() - alloc0
	t.peakB = sampler.Stop()
	if e.traced {
		var err error
		if after, err = scrapeAll(client, []string{srv.url}); err != nil {
			return err
		}
	}

	// The reference: each trace replayed off-server under the live
	// analysis configuration, outside the timed loop.
	refs := make([][]byte, len(traces))
	replayNS, replayEvents := int64(0), uint64(0)
	for i, tr := range traces {
		sys, err := core.New(livetrace.AnalysisConfig())
		if err != nil {
			return err
		}
		r, err := workload.NewTraceReader(bytes.NewReader(tr.data))
		if err != nil {
			return err
		}
		t0 := time.Now()
		st, err := workload.ReplayStreamStats(sys, workload.NewStreamingSource(r, 0))
		replayNS += int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("reference replay of %s: %w", tr.label(), err)
		}
		replayEvents += st.Events
		if refs[i], err = json.Marshal(st); err != nil {
			return err
		}
	}
	bytesIn := 0.0
	var firstStats []float64
	for _, s := range sessions {
		label := traces[s.trace].label()
		got, _ := json.Marshal(s.info.Stats)
		switch {
		case s.streamErr != nil:
			o.fail("session %d (%s): streaming: %v", s.k, label, s.streamErr)
		case s.followErr != nil:
			o.fail("session %d (%s): following events: %v", s.k, label, s.followErr)
		case s.info.State != livetrace.StateDone || !s.info.Reconciled:
			o.fail("session %d (%s): ended %s (reconciled %v): %s", s.k, label, s.info.State, s.info.Reconciled, s.info.Error)
		case s.sseTerminal != livetrace.StateDone:
			o.fail("session %d (%s): event stream ended %q", s.k, label, s.sseTerminal)
		case s.info.Stats == nil || !bytes.Equal(got, refs[s.trace]):
			o.fail("session %d (%s): final stats differ from the off-server replay", s.k, label)
		}
		t.lat = append(t.lat, s.done.Sub(s.start).Seconds())
		if s.info.Stats != nil {
			t.events += float64(s.info.Stats.Mallocs + s.info.Stats.Frees)
		}
		bytesIn += float64(len(traces[s.trace].data))
		if !s.firstStats.IsZero() {
			firstStats = append(firstStats, s.firstStats.Sub(s.start).Seconds())
		}
	}
	if len(sessions) == 0 {
		return fmt.Errorf("no live session completed")
	}
	o.note("sim digest (sha256 of the reference replays)", digest(refs...), "")
	o.note("sessions with a stats frame", len(firstStats), "count")
	if !e.traced {
		o.endToEndMetrics(t, "session")
		o.note("live_mib_per_s", bytesIn/(1<<20)/t.elapsed, "MiB/s")
		o.note("live_done_s_p50", o.metrics["op_s_p50"], "s")
		o.note("live_done_s_p90", o.metrics["op_s_p90"], "s")
		o.note("live_first_stats_s_p50", median(firstStats), "s")
		o.note("error_rate", ratio(float64(o.failed), float64(o.attempted)), "")
		return nil
	}

	tr := e.tracer
	decodeNS, decodeBytes := int64(0), 0
	for _, t := range traces {
		id := tr.Begin("workload.decode", 0, t.label())
		t0 := time.Now()
		r, err := workload.NewTraceReader(bytes.NewReader(t.data))
		if err != nil {
			return err
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("decoding %s: %w", t.label(), err)
			}
		}
		decodeNS += int64(time.Since(t0))
		tr.End(id)
		decodeBytes += len(t.data)
	}
	ix := indexSpans(tr.Spans())
	m := o.metrics
	m["livetrace.ingest_s"] = median(durationsS(ix.named("livetrace.ingest")))
	m["livetrace.reconcile_s"] = median(durationsS(ix.named("livetrace.reconcile")))
	m["livetrace.first_stats_s"] = median(durationsS(ix.named("livetrace.first_stats")))
	m["livetrace.stalls_per_session"] = ratio(deltaAll(before, after, 0, 1, "cherivoke_live_backpressure_stalls_total", nil), float64(len(sessions)))
	m["livetrace.dropped_windows"] = deltaAll(before, after, 0, 1, "cherivoke_live_dropped_windows_total", nil)
	m["workload.decode_mib_per_s"] = float64(decodeBytes) / (1 << 20) / (float64(decodeNS) / 1e9)
	m["workload.replay_events_per_s"] = float64(replayEvents) / (float64(replayNS) / 1e9)
	var classed []classSample
	for _, s := range sessions {
		classed = append(classed, classSample{class: s.trace, traced: s.traced, lat: s.done.Sub(s.start).Seconds()})
	}
	m["trace_overhead"] = overheadByClass(classed)
	return nil
}

// recordSession adds a finished session's spans. Ingestion ends with the
// stats frame of the last analyzed window, not when the producer's last
// write returns: loopback socket buffers take a whole trace, so the write
// side never sees the server's pace.
func recordSession(tr *Tracer, s liveSession) {
	req := fmt.Sprintf("session%d", s.k)
	at := func(x time.Time) int64 { return int64(x.Sub(tr.epoch)) }
	root := tr.Add(Span{Name: "live.session", Req: req, Start: at(s.start), End: at(s.done)})
	if !s.firstStats.IsZero() {
		tr.Add(Span{Parent: root, Name: "livetrace.first_stats", Req: req, Start: at(s.start), End: at(s.firstStats)})
		tr.Add(Span{Parent: root, Name: "livetrace.ingest", Req: req, Start: at(s.start), End: at(s.lastStats)})
		tr.Add(Span{Parent: root, Name: "livetrace.reconcile", Req: req, Start: at(s.lastStats), End: at(s.done)})
	}
}

// classSample is one op's latency, tagged with its kind and whether the
// traced run recorded spans for it.
type classSample struct {
	class  int
	traced bool
	lat    float64
}

// overheadByClass compares traced with untraced ops of the same kind (a
// workload's kinds differ far more in latency than tracing costs) and
// returns the geometric mean over kinds of the ratio of median latencies.
func overheadByClass(samples []classSample) float64 {
	lat := map[int][2][]float64{}
	for _, s := range samples {
		l := lat[s.class]
		if s.traced {
			l[1] = append(l[1], s.lat)
		} else {
			l[0] = append(l[0], s.lat)
		}
		lat[s.class] = l
	}
	logSum, n := 0.0, 0
	for _, l := range lat {
		if len(l[0]) > 0 && len(l[1]) > 0 {
			logSum += math.Log(median(l[1]) / median(l[0]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
