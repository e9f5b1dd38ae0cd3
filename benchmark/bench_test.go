package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := percentile(xs, 0.95)
	if err != nil || got != 380 {
		t.Fatalf("p95 of 1..400 = %v, %v; want 380", got, err)
	}
	if got, err := percentile(xs, 0.5); err != nil || got != 200 {
		t.Fatalf("p50 of 1..400 = %v, %v; want 200", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 200 samples leave exactly 10 beyond p95; 199 leave 9.
	if _, err := percentile(make([]float64, 200), 0.95); err != nil {
		t.Fatalf("p95 of 200 samples refused: %v", err)
	}
	for _, n := range []int{0, 1, 50, 199} {
		if _, err := percentile(make([]float64, n), 0.95); err == nil {
			t.Errorf("p95 of %d samples was not refused", n)
		}
	}
	if _, err := percentile(make([]float64, 199), 0.05); err == nil {
		t.Error("p5 of 199 samples was not refused")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("median reordered its argument")
	}
}

func TestSummarizeMedianAcrossRounds(t *testing.T) {
	window := 5 * time.Second // rounds of 1 s
	at := func(sec float64, rows int, err error) sample {
		dur := 2 * time.Millisecond
		if sec >= 3 && sec < 4 {
			dur *= 5 // a disturbed round moves neither percentile
		}
		return sample{end: time.Duration(sec * float64(time.Second)), dur: dur, rows: rows, err: err}
	}
	var samples []sample
	// Rows per round: 100, 200, 200, 500, 400 -> median 200 rows/s, where
	// the mean would say 280.
	for round, rows := range []int{100, 200, 200, 500, 400} {
		for k := 0; k < rows/100; k++ {
			samples = append(samples, at(float64(round)+0.5, 100, nil))
		}
	}
	samples = append(samples,
		at(1.2, 0, errors.New("oracle mismatch")), // failed: attempted, no rows, no latency
		at(5.1, 100, nil))                         // in flight when the window closed: a lenient summary keeps it in the last round
	got, err := summarize(samples, window, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.rowsPerSec != 200 {
		t.Errorf("rows/s = %v (rounds %v), want the median round 200", got.rowsPerSec, got.perRound)
	}
	if got.attempted != 16 || got.failed != 1 || got.samples != 15 || got.rows != 1500 {
		t.Errorf("attempted %d failed %d samples %d rows %d, want 16 1 15 1500", got.attempted, got.failed, got.samples, got.rows)
	}
	if got.p50ms != 2 || got.p95ms != 2 {
		t.Errorf("p50 = %v ms, p95 = %v ms; want the median round's 2 and 2", got.p50ms, got.p95ms)
	}
	if got.minRound != 1 {
		t.Errorf("leanest round has %d calls, want 1", got.minRound)
	}
	if _, err := summarize(samples, window, false); err == nil {
		t.Error("a strict summary accepted a p95 over a handful of samples")
	}

	// A strict summary leaves out what the window did not see complete.
	samples = samples[:0]
	for k := 0; k < 1000; k++ {
		samples = append(samples, at(float64(k)/200, 1, nil))
	}
	samples = append(samples, at(5.0, 1, nil), at(7.5, 1, nil))
	got, err = summarize(samples, window, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.attempted != 1000 || got.minRound != 200 || got.rowsPerSec != 200 {
		t.Errorf("attempted %d, leanest round %d, rows/s %v; want 1000, 200, 200", got.attempted, got.minRound, got.rowsPerSec)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 80, End: 90},
		{ID: 5, Parent: 3, Start: 30, End: 70}, // outlasts its parent
		{ID: 6, Parent: 1, Start: 35, End: 38}, // inside the overlap
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30, 3: 30 - 40, 4: 10, 5: 40, 6: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestPlaceLaysChildrenBackToBack(t *testing.T) {
	tr := newTracer()
	root := &node{name: "call", dur: 100}
	a := root.add("soap.marshal", 10)
	a.add("inner", 4)
	root.add("soap.http", -5) // a paired difference gone negative takes no room
	root.add("services.serve", 60)
	tr.place(root, tr.add(0, "t", "call", 1000, 1100), "t", 1000)
	var got [][3]int64
	for _, s := range tr.spans {
		got = append(got, [3]int64{int64(s.Parent), s.Start, s.End})
	}
	want := [][3]int64{{0, 1000, 1100}, {1, 1000, 1010}, {2, 1000, 1004}, {1, 1010, 1010}, {1, 1010, 1070}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("laid out %v, want %v", got, want)
	}
	if self := selfTimes(tr.spans); self[1] != 30 || self[2] != 6 {
		t.Errorf("self of root %d, of soap.marshal %d; want 30 and 6", self[1], self[2])
	}
}

func TestUnattributedPct(t *testing.T) {
	for _, c := range []struct {
		root, stages time.Duration
		want         float64
	}{{100, 90, 10}, {100, 100, 0}, {100, 125, -25}, {0, 10, 0}} {
		if got := unattributedPct(c.root, c.stages); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("unattributedPct(%d, %d) = %v, want %v", c.root, c.stages, got, c.want)
		}
	}
}

func TestScrapeCounterDeltas(t *testing.T) {
	docs := []string{
		`{"uptime_seconds":1,"counters":{"admission_shed_total{reason=queue_full}":2,"harness_builds_total":5},"gauges":{"x":1}}`,
		`{"uptime_seconds":2,"counters":{"admission_shed_total{reason=queue_full}":3,"admission_shed_total{reason=draining}":4,"admission_shed_totals":9,"harness_builds_total":5},"gauges":{}}`,
	}
	call := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, docs[call])
		call++
	}))
	defer srv.Close()
	before, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	after, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	moved := after.since(before)
	// A counter born between the scrapes counts from zero; a name that
	// merely starts the same is another counter.
	if got := moved.total("admission_shed_total"); got != 1+4 {
		t.Errorf("shed delta = %d, want 5", got)
	}
	if got := moved.total("harness_builds_total"); got != 0 {
		t.Errorf("builds delta = %d, want 0", got)
	}
	if _, err := scrape(srv.URL + "/nowhere"); err == nil {
		t.Error("scraping a 404 did not fail")
	}
}

// payloadDigest hashes the first n generated request payloads of every
// client: what the server would receive.
func payloadDigest(in *instance, clients, n int) string {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			req := in.next(c, i)
			fmt.Fprintf(h, "%s\x00%s\x00", req.op, req.payload())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				in, err := w.setup(config{seed: seed, clients: maxClients, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer in.close()
				return payloadDigest(in, maxClients, 2*createEvery)
			}
			a, b, other := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 generated two different request sequences: %s, %s", a, b)
			}
			if a == other {
				t.Errorf("seeds 1 and 2 generated the same request sequence %s", a)
			}
		})
	}
}

// TestSmoke runs every workload end to end for half a second each: set-up,
// oracle, closed loop, traced replay, ledger and trace file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, smoke: true,
				dir: t.TempDir(), outDir: t.TempDir(), out: io.Discard}
			if testing.Verbose() {
				o.out = os.Stdout
			}
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			for _, def := range endToEnd {
				// Half a second may leave most rounds empty, so rows_per_s,
				// the median round, may read 0 here.
				m, ok := res.Metrics[def.Name]
				if !ok || m.Unit != def.Unit || m.Value < 0 || (m.Value == 0 && def.Name != "rows_per_s") {
					t.Errorf("metric %s = %+v, want a positive value in %s", def.Name, m, def.Unit)
				}
			}
			var doc struct {
				Ledger map[string]float64
				Spans  []span
			}
			raw, err := os.ReadFile(o.outDir + "/trace_" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 {
				t.Error("trace file has no spans")
			}
			for _, def := range perLayer {
				if _, ok := doc.Ledger[def.Name]; !ok {
					t.Errorf("ledger lacks %s", def.Name)
				}
			}
			if got := doc.Ledger["admission.shed_total"]; got != 0 {
				t.Errorf("admission shed %v requests in a closed loop under the in-flight cap", got)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json at the repository root
// to the tables this program reports from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the program %+v", doc.PerLayer, perLayer)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", doc.RunSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
}
