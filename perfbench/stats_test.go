package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		pct     float64
		val     float64
		wantCnt int
	}{
		{n: 5, ok: false, wantCnt: 5},
		{n: 10, ok: false, wantCnt: 10},
		{n: 11, ok: true, pct: 100.0 / 11, val: 1, wantCnt: 11},
		{n: 100, ok: true, pct: 90, val: 90, wantCnt: 100},
		{n: 1000, ok: true, pct: 99, val: 990, wantCnt: 1000},
	} {
		pct, val, n, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || n != tc.wantCnt {
			t.Errorf("n=%d: ok=%v count=%d, want ok=%v count=%d", tc.n, ok, n, tc.ok, tc.wantCnt)
			continue
		}
		if !ok {
			continue
		}
		if pct != tc.pct || val != tc.val {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", tc.n, pct, val, tc.pct, tc.val)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > val {
				beyond++
			}
		}
		if beyond != tailSamples {
			t.Errorf("n=%d: %d samples beyond the tail value, want %d", tc.n, beyond, tailSamples)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping", []Span{{Start: 110, End: 140}, {Start: 130, End: 160}}, 50},
		{"nested", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}, {Start: 150, End: 180}}, 20},
		{"unsorted and touching", []Span{{Start: 150, End: 160}, {Start: 140, End: 150}}, 80},
		{"partly outside", []Span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"wholly outside", []Span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"covering", []Span{{Start: 0, End: 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func parse(t *testing.T, text string) []obs.Sample {
	t.Helper()
	s, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parsing exposition text: %v", err)
	}
	return s
}

func TestDeltaCounterReset(t *testing.T) {
	before := parse(t, `# TYPE jobs_total counter
jobs_total{via="pool"} 40
jobs_total{via="internal"} 7
`)
	after := parse(t, `# TYPE jobs_total counter
jobs_total{via="pool"} 45
jobs_total{via="internal"} 3
`)
	// pool grew by 5; internal went down, so it was reset and grew by 3.
	if got := delta(before, after, "jobs_total", nil); got != 8 {
		t.Errorf("delta over a reset = %v, want 8", got)
	}
	if got := delta(before, after, "jobs_total", map[string]string{"via": "pool"}); got != 5 {
		t.Errorf("delta of one label = %v, want 5", got)
	}
}

func TestHistogramDeltaMissingLabel(t *testing.T) {
	// Before the interval only get_job had been observed; put_result's
	// series appear later and count from zero.
	before := parse(t, `# TYPE store_seconds histogram
store_seconds_bucket{op="get_job",le="+Inf"} 4
store_seconds_sum{op="get_job"} 0.004
store_seconds_count{op="get_job"} 4
`)
	after := parse(t, `# TYPE store_seconds histogram
store_seconds_bucket{op="get_job",le="+Inf"} 6
store_seconds_sum{op="get_job"} 0.010
store_seconds_count{op="get_job"} 6
store_seconds_bucket{op="put_result",le="+Inf"} 2
store_seconds_sum{op="put_result"} 0.5
store_seconds_count{op="put_result"} 2
`)
	// Two stretches of two topologies, as the service's rounds give: the
	// second topology's process starts from nothing.
	pairs := []scrapePair{{scrapes{before}, scrapes{after}}, {scrapes{nil}, scrapes{before}}}
	if got := histMean(pairs[:1], 0, 1, "store_seconds", map[string]string{"op": "put_result"}); got != 0.25 {
		t.Errorf("mean of a series missing before = %v, want 0.25", got)
	}
	if got := histMean(pairs[:1], 0, 1, "store_seconds", map[string]string{"op": "get_job"}); got < 0.0029 || got > 0.0031 {
		t.Errorf("mean of get_job = %v, want 0.003", got)
	}
	// (0.006 + 0.004) / (2 + 4)
	if got := histMean(pairs, 0, 1, "store_seconds", map[string]string{"op": "get_job"}); got < 0.00166 || got > 0.00167 {
		t.Errorf("mean of get_job over both stretches = %v, want 0.001667", got)
	}
	if got := histMean(pairs, 0, 1, "store_seconds", map[string]string{"op": "publish_job"}); got != 0 {
		t.Errorf("mean of a series never observed = %v, want 0", got)
	}
}

func TestOverheadByClass(t *testing.T) {
	var samples []classSample
	for i := 0; i < 5; i++ {
		samples = append(samples,
			classSample{class: 0, traced: false, lat: 1},
			classSample{class: 0, traced: true, lat: 2},
			classSample{class: 1, traced: false, lat: 100},
			classSample{class: 1, traced: true, lat: 50})
	}
	if got := overheadByClass(samples); got < 0.999 || got > 1.001 {
		t.Errorf("overhead = %v, want 1 (geometric mean of 2 and 0.5)", got)
	}
}

func TestReadSSE(t *testing.T) {
	stream := "event: info\ndata: {\"state\":\"running\"}\n\nevent: stats\ndata: 1\n\ndata: unnamed\n\nevent: info\ndata: last\n\n"
	var got []string
	err := readSSE(strings.NewReader(stream), func(event, data string) error {
		got = append(got, event+"="+data)
		return nil
	})
	want := []string{`info={"state":"running"}`, "stats=1", "=unnamed", "info=last"}
	if err != nil || strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("readSSE = %q, %v; want %q, nil", got, err, want)
	}
	stop := errors.New("stop")
	calls := 0
	err = readSSE(strings.NewReader(stream), func(string, string) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Errorf("readSSE after a callback error: %v after %d calls, want %v after 1", err, calls, stop)
	}
}

func TestClientSchedule(t *testing.T) {
	sched := clientSchedule(7, 1)
	seen := map[string]bool{}
	repeats := 0
	for k, sub := range sched {
		if sub.first == k {
			if seen[sub.spec.Name] {
				t.Fatalf("submission %d: new spec %s was already submitted", k, sub.spec.Name)
			}
			seen[sub.spec.Name] = true
			continue
		}
		repeats++
		if sub.first > k || sched[sub.first].first != sub.first || sched[sub.first].spec.Name != sub.spec.Name {
			t.Fatalf("submission %d repeats %d, which is not an earlier new spec of the same name", k, sub.first)
		}
	}
	if want := len(sched) * 2 / 5; repeats < want-1 || repeats > want+1 {
		t.Errorf("%d repeats in %d submissions, want about %d", repeats, len(sched), want)
	}
	// Each full pass over the profile pairs takes every pair once.
	pairs := len(serviceProfiles) * (len(serviceProfiles) - 1) / 2
	var news []string
	for k, sub := range sched {
		if sub.first == k {
			news = append(news, strings.Join(sub.spec.Profiles, "+"))
		}
	}
	for start := 0; start+pairs <= len(news); start += pairs {
		seenPair := map[string]bool{}
		for _, p := range news[start : start+pairs] {
			seenPair[p] = true
		}
		if len(seenPair) != pairs {
			t.Errorf("new specs %d-%d take %d distinct profile pairs, want %d", start, start+pairs-1, len(seenPair), pairs)
		}
	}
	again := clientSchedule(7, 1)
	for k := range sched {
		if sched[k].spec.Name != again[k].spec.Name || sched[k].spec.Seeds[0] != again[k].spec.Seeds[0] {
			t.Fatalf("schedule is not a function of the seed (submission %d)", k)
		}
	}
}

func TestSessionCycleMix(t *testing.T) {
	var traces []liveTrace
	for _, full := range []bool{false, true} {
		for i, name := range liveProfiles {
			traces = append(traces, liveTrace{name: name, full: full, data: make([]byte, i+1)})
		}
	}
	cycle := sessionCycle(3, traces)
	count := map[string]int{}
	var fulls []int
	for _, i := range cycle {
		count[traces[i].label()]++
		if traces[i].full {
			fulls = append(fulls, len(traces[i].data))
		}
	}
	for _, tr := range traces {
		want := liveRounds
		switch {
		case tr.full:
			want = 1
		case tr.name == "dealII":
			want = 2 * liveRounds
		}
		if count[tr.label()] != want {
			t.Errorf("%s appears %d times per cycle, want %d", tr.label(), count[tr.label()], want)
		}
	}
	if !sort.SliceIsSorted(fulls, func(a, b int) bool { return fulls[a] > fulls[b] }) {
		t.Errorf("full-scale traces in the cycle by size: %v, want largest first", fulls)
	}
	if traces[cycle[len(cycle)-1]].full {
		t.Errorf("cycle ends on a full-scale trace")
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metric
// tables the binary prints from in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the binary runs %v", names, want)
	}
}
