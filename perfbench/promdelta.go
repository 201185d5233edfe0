package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// scrape fetches and parses a server's /metrics page from the outside, as
// any monitoring client would.
func scrape(client *http.Client, base string) ([]obs.Sample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", base, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// seriesKey identifies one time series: its name and sorted label pairs.
func seriesKey(s obs.Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, s.Labels[k])
	}
	return b.String()
}

// matches reports whether s is named name and carries every label in want.
func matches(s obs.Sample, name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// delta sums, over every series named name that carries the labels in want,
// how much the series grew between two scrapes of one process. A series
// absent from the first scrape (its label tuple was first observed in
// between) grew from zero. A series that went down was reset (the process
// restarted or the instrument was recreated), so its growth is its whole
// current value.
func delta(before, after []obs.Sample, name string, want map[string]string) float64 {
	prev := map[string]float64{}
	for _, s := range before {
		if matches(s, name, want) {
			prev[seriesKey(s)] = s.Value
		}
	}
	total := 0.0
	for _, s := range after {
		if !matches(s, name, want) {
			continue
		}
		d := s.Value - prev[seriesKey(s)]
		if d < 0 {
			d = s.Value
		}
		total += d
	}
	return total
}

// scrapes holds one /metrics snapshot per process of a topology, in a fixed
// process order.
type scrapes [][]obs.Sample

func scrapeAll(client *http.Client, bases []string) (scrapes, error) {
	out := make(scrapes, len(bases))
	for i, b := range bases {
		s, err := scrape(client, b)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// deltaAll sums delta over the processes in [from, to).
func deltaAll(before, after scrapes, from, to int, name string, want map[string]string) float64 {
	t := 0.0
	for i := from; i < to; i++ {
		t += delta(before[i], after[i], name, want)
	}
	return t
}

// scrapePair holds the scrapes of one topology before and after a stretch
// of load.
type scrapePair struct{ before, after scrapes }

// sumDeltas sums deltaAll over several stretches, each of its own topology.
func sumDeltas(pairs []scrapePair, from, to int, name string, want map[string]string) float64 {
	t := 0.0
	for _, p := range pairs {
		t += deltaAll(p.before, p.after, from, to, name, want)
	}
	return t
}

// histMean returns the mean of the observations a histogram gained over
// the stretches, in the processes [from, to) (0 when it gained none).
func histMean(pairs []scrapePair, from, to int, name string, want map[string]string) float64 {
	return ratio(sumDeltas(pairs, from, to, name+"_sum", want), sumDeltas(pairs, from, to, name+"_count", want))
}
