package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/server"
)

// serviceProfiles are the profiles the service specs draw from. At 1 MiB
// live and 5k events each of their jobs takes about 2 ms, so a round trip
// is dominated by the service rather than the simulation, and every new
// spec costs about the same. (povray, dealII, omnetpp and xalancbmk jobs
// take 6 to 23 ms there; with them the new specs' latencies spread over a
// factor of six and the median moved with the draw of profiles.)
var serviceProfiles = []string{"astar", "gobmk", "hmmer", "sphinx3", "h264ref"}

// serviceRoundOps is how many submissions each client makes per round. The
// timed loop runs in rounds, each over a fresh fleet and store, and every
// round submits the same schedule. The coordinator keeps every campaign it
// has run, so over one long loop its heap, and with it the garbage
// collector's pace, would depend on how many round trips the host managed
// before; rounds of fixed work give every run the same state to measure.
const serviceRoundOps = 100

// httpServer is one in-process server listening on loopback.
type httpServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(opts server.Options) (*httpServer, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &httpServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.http.Serve(ln) }()
	return h, nil
}

// stop shuts the listener down, waits for in-flight requests and the serve
// loop, then releases the server's own resources.
func (h *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.srv.Close()
	return err
}

// newClient returns an HTTP client with its own connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 120 * time.Second}
}

func waitHealthy(client *http.Client, url string) error {
	for i := 0; ; i++ {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 100 {
			return fmt.Errorf("%s not healthy: %v", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleet is the service-mixed topology: a coordinator over a fresh sqlite:
// store dispatching to two in-process workers.
type fleet struct {
	workers []*httpServer
	coord   *httpServer
}

func (f *fleet) urls() []string {
	out := []string{f.coord.url}
	for _, w := range f.workers {
		out = append(out, w.url)
	}
	return out
}

func (f *fleet) stop() error {
	var first error
	for _, h := range append([]*httpServer{f.coord}, f.workers...) {
		if h == nil {
			continue
		}
		if err := h.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func startFleet(dir string, client *http.Client) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < benchWorkers; i++ {
		w, err := startServer(server.Options{Worker: true})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.url)
	}
	coord, err := startServer(server.Options{
		Store:      "sqlite:" + filepath.Join(dir, "store.db"),
		TraceDir:   filepath.Join(dir, "traces"),
		WorkerURLs: urls,
		// Two jobs in flight per worker keep both cores busy through the
		// dispatch round trips. With one, the cores idled between jobs and
		// every hand-off waited on the host to wake an idle core: on a
		// shared host the round-trip rate then spread over twice as much
		// from run to run as with two.
		WorkerInFlight: 2,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	for _, u := range f.urls() {
		if err := waitHealthy(client, u); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// submission is one scheduled POST /campaigns: a new spec, or a repeat of
// an earlier spec of the same client (first = its index).
type submission struct {
	spec  campaign.Spec
	first int
}

// clientSchedule derives one client's submissions for a round from the
// workload seed. Three in five submit a spec no one has submitted in the
// round; the other two repeat one of the client's own earlier new specs
// (finished by then, so the job-result store serves it). A repeat takes a
// few milliseconds, a new spec several times that: with an even split the
// median would sit on the gap between the two kinds and jump from run to
// run, so the new specs are the majority and both the median and the p90
// fall among them. The new specs take the pairs of serviceProfiles in
// seed-shuffled passes over all of them, so every seed's round does about
// the same simulated work.
func clientSchedule(seed uint64, client int) []submission {
	r := rand.New(rand.NewPCG(seed, uint64(client)))
	var pairs [][]string
	for i, a := range serviceProfiles {
		for _, b := range serviceProfiles[i+1:] {
			pairs = append(pairs, []string{a, b})
		}
	}
	out := make([]submission, serviceRoundOps)
	var news []int
	for k := range out {
		if k%5 == 1 || k%5 == 3 {
			first := news[r.IntN(len(news))]
			out[k] = submission{spec: out[first].spec, first: first}
			continue
		}
		if len(news)%len(pairs) == 0 {
			r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		}
		n := uint64(client*serviceRoundOps + k)
		out[k] = submission{first: k, spec: campaign.Spec{
			Name:      fmt.Sprintf("svc-c%d-%d", client, k),
			Profiles:  pairs[len(news)%len(pairs)],
			Seeds:     []uint64{derive(seed, 0x5E1, 2*n), derive(seed, 0x5E1, 2*n+1)},
			MaxLive:   []uint64{1 << 20},
			MaxEvents: 5000,
			MinSweeps: 1,
		}}
		news = append(news, k)
	}
	return out
}

// roundTrip is one completed submission.
type roundTrip struct {
	round         int
	client, index int
	traced        bool
	body          []byte // the /results artifact
	lat           float64
	events        float64
	jobs          int
}

// serviceClient runs one client's closed loop.
type serviceClient struct {
	e      *env
	id     int
	http   *http.Client
	base   string
	sched  []submission
	sample func(k int) bool // whether op k is traced
}

// do performs submission k: POST /campaigns, follow its SSE stream to the
// terminal status, GET its results. req names the op in spans.
func (c *serviceClient) do(k int, req string) (roundTrip, error) {
	sub := c.sched[k]
	rt := roundTrip{client: c.id, index: k}
	tr := c.e.tracer
	traced := tr != nil && c.sample(k)
	rt.traced = traced
	root, span := 0, func(string) func() { return func() {} }
	if traced {
		root = tr.Begin("campaign.roundtrip", 0, req)
		span = func(name string) func() {
			id := tr.Begin(name, root, req)
			return func() { tr.End(id) }
		}
	}
	start := time.Now()
	body, err := json.Marshal(server.SubmitRequest{Spec: sub.spec})
	if err != nil {
		return rt, err
	}
	end := span("server.submit")
	resp, err := c.http.Post(c.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return rt, err
	}
	var ack server.SubmitResponse
	err = decodeResponse(resp, http.StatusAccepted, &ack)
	end()
	if err != nil {
		return rt, fmt.Errorf("submit: %w", err)
	}

	end = span("server.events")
	state, err := c.followEvents(ack.ID)
	end()
	if err != nil {
		return rt, err
	}
	if state != engine.StateDone {
		return rt, fmt.Errorf("campaign %s ended %s", ack.ID, state)
	}

	end = span("server.results")
	resp, err = c.http.Get(c.base + "/campaigns/" + ack.ID + "/results")
	if err != nil {
		return rt, err
	}
	rt.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end()
	rt.lat = time.Since(start).Seconds()
	if traced {
		tr.End(root)
	}
	if err != nil {
		return rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return rt, fmt.Errorf("results: %s", resp.Status)
	}
	var res campaign.Result
	if err := json.Unmarshal(rt.body, &res); err != nil {
		return rt, fmt.Errorf("decoding results: %w", err)
	}
	for _, jr := range res.Jobs {
		rt.events += float64(jr.Mallocs + jr.Frees)
	}
	rt.jobs = len(res.Jobs)
	return rt, nil
}

// followEvents reads a campaign's SSE stream until the server ends it and
// returns the last status state seen.
func (c *serviceClient) followEvents(id string) (string, error) {
	resp, err := c.http.Get(c.base + "/campaigns/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	state := ""
	err = readSSE(resp.Body, func(event, data string) error {
		if event != "status" {
			return nil
		}
		var st server.Status
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return fmt.Errorf("decoding status event: %w", err)
		}
		state = st.State
		return nil
	})
	return state, err
}

// readSSE reads a server-sent event stream to its end and calls fn with
// each data line and the event name it belongs to. An error from fn stops
// the read.
func readSSE(body io.Reader, fn func(event, data string) error) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := fn(event, strings.TrimPrefix(line, "data: ")); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// runServiceMixed measures two closed-loop HTTP clients against a
// coordinator with two workers, in rounds of fixed work. Every artifact is
// checked against an in-process campaign.Run of its spec, and every repeat
// against its first submission.
func runServiceMixed(e *env) error {
	o := e.out
	var t timing
	client := newClient()
	defer client.CloseIdleConnections()
	var scheds [][]submission
	for c := 0; c < benchWorkers; c++ {
		scheds = append(scheds, clientSchedule(e.seed, c))
	}
	// One round trip of a spec outside the schedule ends each set-up, so
	// the connections, the store and the workers are warm before timing.
	warmup := []submission{{spec: campaign.Spec{
		Name: "svc-warmup", Profiles: serviceProfiles[:2], Seeds: []uint64{derive(e.seed, 0x3A7, 0), derive(e.seed, 0x3A7, 1)},
		MaxLive: []uint64{1 << 20}, MaxEvents: 5000, MinSweeps: 1,
	}}}
	// The traced run interleaves traced and untraced round trips, so
	// trace_overhead compares them under the same store size and load.
	sample := func(k int) bool { return k%2 == 0 }

	var trips []roundTrip
	var peaks []float64
	var deltas []scrapePair
	budget := e.runFor()
	loopStart := time.Now()
	for round := 0; round < setupRepeats || time.Since(loopStart) < budget || o.attempted < minOps; round++ {
		// The previous round's fleet is garbage now; collect it so that
		// the heap sampler starts from this round's own heap.
		runtime.GC()
		dir, err := os.MkdirTemp(e.tmp, "service-")
		if err != nil {
			return err
		}
		setupStart := time.Now()
		f, err := startFleet(dir, client)
		if err != nil {
			return err
		}
		warm := &serviceClient{e: e, id: -1, http: client, base: f.coord.url, sched: warmup, sample: func(int) bool { return false }}
		if _, err := warm.do(0, "warmup"); err != nil {
			f.stop()
			return fmt.Errorf("warm-up round trip: %w", err)
		}
		t.setups = append(t.setups, time.Since(setupStart).Seconds())
		var pair scrapePair
		if e.traced {
			if pair.before, err = scrapeAll(client, f.urls()); err != nil {
				f.stop()
				return err
			}
		}
		rt := serviceRound(e, f, round, scheds, sample)
		if e.traced {
			pair.after, err = scrapeAll(client, f.urls())
			deltas = append(deltas, pair)
		}
		if stopErr := f.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		trips = append(trips, rt.trips...)
		peaks = append(peaks, float64(rt.peakB))
		t.allocB += rt.allocB
		t.elapsed += rt.elapsed
		events := 0.0
		for _, tr := range rt.trips {
			if scheds[tr.client][tr.index].first == tr.index {
				events += tr.events
			}
		}
		t.opRates = append(t.opRates, float64(len(rt.trips))/rt.elapsed)
		t.eventRates = append(t.eventRates, events/rt.elapsed)
	}
	t.peakB = uint64(median(peaks))

	// Output checks, outside the timed loop. Every round submits the same
	// schedule, so one reference per new spec covers all rounds.
	refs := map[[2]int][]byte{}
	for c, sched := range scheds {
		for k, sub := range sched {
			if sub.first != k {
				continue
			}
			res, err := campaign.Run(e.ctx, sub.spec, campaign.RunOptions{Workers: benchWorkers})
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				return err
			}
			refs[[2]int{c, k}] = buf.Bytes()
		}
	}
	firsts := map[[3]int][]byte{} // round, client, index
	for _, rt := range trips {
		if scheds[rt.client][rt.index].first == rt.index {
			firsts[[3]int{rt.round, rt.client, rt.index}] = rt.body
		}
	}
	repeats := 0
	for _, rt := range trips {
		first := scheds[rt.client][rt.index].first
		if first != rt.index {
			repeats++
			if fb, ok := firsts[[3]int{rt.round, rt.client, first}]; ok && !bytes.Equal(rt.body, fb) {
				o.fail("round %d client %d submission %d: repeated spec's artifact differs from its first submission", rt.round, rt.client, rt.index)
			}
		}
		if !bytes.Equal(rt.body, refs[[2]int{rt.client, first}]) {
			o.fail("round %d client %d submission %d: artifact differs from in-process campaign.Run", rt.round, rt.client, rt.index)
		}
	}

	jobs, nTraced := 0, 0
	var classed []classSample
	for _, rt := range trips {
		t.lat = append(t.lat, rt.lat)
		if scheds[rt.client][rt.index].first == rt.index {
			t.events += rt.events
		}
		jobs += rt.jobs
		if rt.traced {
			nTraced++
		}
		repeat := 0
		if scheds[rt.client][rt.index].first != rt.index {
			repeat = 1
		}
		classed = append(classed, classSample{class: repeat, traced: rt.traced, lat: rt.lat})
	}
	// The digest covers the references of every new spec of the schedule,
	// so it depends on the seed alone.
	var parts [][]byte
	for c, sched := range scheds {
		for k, sub := range sched {
			if sub.first == k {
				parts = append(parts, refs[[2]int{c, k}])
			}
		}
	}
	o.note("sim digest (sha256 of the reference artifacts)", digest(parts...), "")
	o.note("rounds", len(peaks), "count")
	o.note("repeated submissions", repeats, "count")
	if !e.traced {
		o.endToEndMetrics(t, "campaign")
		o.note("campaigns_per_s", o.metrics["ops_per_s"], "1/s")
		o.note("campaign_s_p50", o.metrics["op_s_p50"], "s")
		o.note("campaign_s_p90", o.metrics["op_s_p90"], "s")
		o.note("jobs_per_s", float64(jobs)/t.elapsed, "1/s")
		o.note("error_rate", ratio(float64(o.failed), float64(o.attempted)), "")
		return nil
	}

	m := o.metrics
	ix := indexSpans(e.tracer.Spans())
	ms := func(name string) float64 { return median(durationsS(ix.named(name))) * 1e3 }
	m["server.submit_ms"] = ms("server.submit")
	m["server.events_ms"] = ms("server.events")
	m["server.results_ms"] = ms("server.results")
	m["trace_overhead"] = overheadByClass(classed)
	// Process 0 is the coordinator, the rest are workers.
	coord := func(name string, want map[string]string) float64 { return sumDeltas(deltas, 0, 1, name, want) }
	storeMS := func(op string) float64 {
		return histMean(deltas, 0, 1, "cherivoke_engine_store_seconds", map[string]string{"op": op}) * 1e3
	}
	m["engine.store_get_job_ms"] = storeMS("get_job")
	m["engine.store_publish_job_ms"] = storeMS("publish_job")
	m["engine.store_put_result_ms"] = storeMS("put_result")
	m["engine.store_create_campaign_ms"] = storeMS("create_campaign")
	m["engine.fsyncs_per_job"] = ratio(coord("cherivoke_store_fsyncs_total", nil), float64(jobs))
	m["engine.lease_wait_s"] = coord("cherivoke_engine_lease_wait_seconds_sum", nil)
	hits := coord("cherivoke_engine_cache_hits_total", nil)
	m["engine.dedup_hit_ratio"] = ratio(hits, hits+coord("cherivoke_engine_cache_misses_total", nil))
	rc := coord("cherivoke_store_readcache_hits_total", nil)
	m["engine.readcache_hit_ratio"] = ratio(rc, rc+coord("cherivoke_store_readcache_misses_total", nil))
	route := map[string]string{"route": "POST /internal/jobs"}
	m["engine.dispatch_job_ms"] = histMean(deltas, 1, 1+benchWorkers, "cherivoke_http_request_seconds", route) * 1e3
	m["engine.dispatch_retries"] = coord("cherivoke_dispatch_reassigned_total", nil) + coord("cherivoke_dispatch_local_fallback_total", nil)
	o.note("round trips traced / untraced", fmt.Sprintf("%d / %d", nTraced, len(trips)-nTraced), "")
	return nil
}

// serviceRoundResult is one round of the service loop.
type serviceRoundResult struct {
	trips   []roundTrip
	elapsed float64 // seconds from the round's start to its last completion
	allocB  uint64  // Go heap bytes allocated during the round
	peakB   uint64  // peak live Go heap during the round
}

// serviceRound runs one round: each client submits its whole schedule to
// fleet f, one round trip at a time. A failed round trip is counted and
// the client goes on.
func serviceRound(e *env, f *fleet, round int, scheds [][]submission, sample func(int) bool) serviceRoundResult {
	o := e.out
	var res serviceRoundResult
	var mu sync.Mutex
	var lastEnd time.Time
	var wg sync.WaitGroup
	sampler := startHeapSampler(10 * time.Millisecond)
	alloc0 := heapAllocBytes()
	start := time.Now()
	for c := 0; c < benchWorkers; c++ {
		sc := &serviceClient{e: e, id: c, http: newClient(), base: f.coord.url, sched: scheds[c], sample: sample}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sc.http.CloseIdleConnections()
			for k := range sc.sched {
				rt, err := sc.do(k, fmt.Sprintf("r%d/c%d/%d", round, sc.id, k))
				rt.round = round
				mu.Lock()
				o.attempted++
				if err != nil {
					o.fail("round %d client %d submission %d: %v", round, sc.id, k, err)
				} else {
					res.trips = append(res.trips, rt)
				}
				lastEnd = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = lastEnd.Sub(start).Seconds()
	res.allocB = heapAllocBytes() - alloc0
	res.peakB = sampler.Stop()
	return res
}
