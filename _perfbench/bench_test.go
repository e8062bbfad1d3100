package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/socialgraph"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.90}, {20, 0.5}, {15, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	var d dist
	for i := 1000; i >= 1; i-- {
		d.add(float64(i))
	}
	if v, q := d.tail(0.99); v != 990 || q != 0.99 {
		t.Errorf("p99 of 1..1000 = %v at %v, want 990 at 0.99", v, q)
	}
	d = dist{}
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	// 200 samples support p95 at most: 10 samples lie above 190.
	if v, q := d.tail(0.99); v != 190 || q != 0.95 {
		t.Errorf("tail of 1..200 = %v at %v, want 190 at 0.95", v, q)
	}
	if m := d.p50(); m != 100 {
		t.Errorf("median of 1..200 = %v, want 100", m)
	}
}

func TestCensoredAtDrainTimeout(t *testing.T) {
	const timeout = 5 * time.Second
	due := int64(10 * time.Second)
	for _, c := range []struct {
		name   string
		got    int64
		sample time.Duration
		ok     bool
	}{
		{"never arrived", 0, timeout, false},
		{"in time", due + int64(30*time.Millisecond), 30 * time.Millisecond, true},
		{"exactly at the timeout", due + int64(timeout), timeout, true},
		{"after the timeout", due + int64(timeout) + 1, timeout, false},
	} {
		sample, ok := censored(due, c.got, timeout)
		if sample != c.sample || ok != c.ok {
			t.Errorf("%s: censored = %v, %v; want %v, %v", c.name, sample, ok, c.sample, c.ok)
		}
	}
}

// TestPlanKeepsMessagesClearOfChurn checks that no mailbox_churn message
// is due within the guard of a cancel or resubscribe of one of its
// thread's members, and that messages still fall inside offline episodes.
func TestPlanKeepsMessagesClearOfChurn(t *testing.T) {
	s, _ := specByName("mailbox_churn")
	p := newPlan(s, 7, 5, 2, func(a, b socialgraph.UserID) bool { return false })
	inside := 0
	for _, m := range p.muts {
		if m.phase != steadyPhase {
			continue
		}
		for _, st := range p.groups[m.group] {
			for _, iv := range p.offline[st] {
				for _, at := range iv {
					if d := m.due - at; d > -s.guard && d < s.guard {
						t.Fatalf("m%d due %v is %v from a churn event of stream %d", m.idx, m.due, d, st)
					}
				}
				if m.due > iv[0] && m.due < iv[1] {
					inside++
				}
			}
		}
	}
	if inside == 0 {
		t.Fatal("no message is due while a recipient is offline")
	}
}

// testRun is a hand-built feed run: post 0 viewed by users 1, 2 and 3;
// user 3 and author 9 block each other.
func testRun() *run {
	s := spec{name: "test", app: feedApp, streams: 3, posts: 1, authors: 1, rate: 1}
	blocked := func(a, b socialgraph.UserID) bool { return a == 3 && b == 9 || a == 9 && b == 3 }
	p := &plan{
		spec: s, blocked: blocked,
		users:  []socialgraph.UserID{1, 2, 3},
		group:  []int32{0, 0, 0},
		pos:    []int32{0, 1, 2},
		groups: [][]int32{{0, 1, 2}},
	}
	r := &run{s: s, p: p, o: options{drain: time.Second}}
	for i, u := range p.users {
		r.streams = append(r.streams, &stream{idx: int32(i), user: u, pos: int32(i), host: -1, lastIdx: -1})
	}
	for i, text := range []string{"m0 hello there", "m1 second one"} {
		m := &mutation{idx: int32(i), author: 9, text: text, recv: make([]int64, 3), ref: uint64(100 + i)}
		m.dueAt = int64(time.Second) * int64(i+1)
		p.muts = append(p.muts, m)
	}
	return r
}

// comment encodes a FeedComments payload for post 0.
func comment(ref uint64, author uint64, text string) []byte {
	b, _ := json.Marshal(apps.CommentPayload{CommentID: ref, VideoID: postBase, Author: author, Text: text}) // plain struct: cannot fail
	return b
}

func TestOracleAcceptsTheWrittenPayload(t *testing.T) {
	r := testRun()
	at := int64(1500 * time.Millisecond)
	r.onPayload(r.streams[0], comment(100, 9, "m0 hello there"), at)
	if r.fatalN != 0 {
		t.Fatalf("correct payload rejected: %v", r.fatal)
	}
	if got := r.p.muts[0].recv[0]; got != at {
		t.Fatalf("receipt = %d, want %d", got, at)
	}
	r.onPayload(r.streams[0], comment(100, 9, "m0 hello there"), at+1)
	if r.duplicates.Load() != 1 {
		t.Fatalf("duplicates = %d, want 1", r.duplicates.Load())
	}
}

func TestOracleRejectsWrongPayload(t *testing.T) {
	for name, raw := range map[string][]byte{
		"altered text":   comment(100, 9, "m0 hello thera"),
		"wrong author":   comment(100, 8, "m0 hello there"),
		"unknown write":  comment(100, 9, "m7 never written"),
		"not a comment":  []byte(`{"comment_id": "x"}`),
		"wrong post":     []byte(`{"comment_id":100,"video_id":5,"author":9,"text":"m0 hello there"}`),
		"second comment": comment(101, 9, "m0 hello there"),
	} {
		r := testRun()
		if name == "second comment" {
			r.onPayload(r.streams[1], comment(100, 9, "m0 hello there"), 1)
		}
		r.onPayload(r.streams[0], raw, 2)
		if r.fatalN == 0 {
			t.Errorf("%s: oracle accepted %s", name, raw)
		}
	}
}

func TestOracleRejectsDeliveryToBlockedViewer(t *testing.T) {
	r := testRun()
	r.onPayload(r.streams[2], comment(100, 9, "m0 hello there"), 2)
	if r.fatalN != 1 {
		t.Fatalf("delivery across a block: %d violations, want 1", r.fatalN)
	}
}

func TestOracleRejectsDeliveryToWrongStream(t *testing.T) {
	r := testRun()
	r.streams[1].group = 1 // user 2 now views another post
	r.onPayload(r.streams[1], comment(100, 9, "m0 hello there"), 2)
	if r.fatalN != 1 {
		t.Fatalf("delivery to a non-recipient: %d violations, want 1", r.fatalN)
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	r := testRun()
	m0, m1 := r.p.muts[0], r.p.muts[1]
	// m0: user 1 receives it after the 1 s drain timeout, user 2 never
	// does, user 3 is blocked and so not expected.
	m0.recv[0] = m0.dueAt + int64(1500*time.Millisecond)
	// m1 failed at the WAS: one failed attempt, and no deliveries expected.
	m1.err = os.ErrInvalid
	// A resume that never completed.
	r.resumes = []*resume{{st: r.streams[0], sent: int64(time.Second)}}
	res := r.analyze([]float64{1}, nil, nil)
	// Attempts: 2 mutations + 2 expected deliveries + 1 resume.
	// Failures: m1's error, both of m0's deliveries (one late, one never
	// arrived) and the resume.
	if res.attempted != 5 || res.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", res.attempted, res.failed)
	}
	lat := map[string]float64{}
	for _, m := range res.e2e {
		lat[m.name] = m.value
	}
	// Both delivery samples enter at the 1 s drain timeout.
	if lat["delivery_p50_ms"] != 1000 {
		t.Fatalf("delivery p50 %v, want 1000 (censored)", lat["delivery_p50_ms"])
	}
}

// TestWorkloadsMatchBenchmarkJSON runs every workload shrunk to a few
// streams, untraced and traced, and checks that the oracle passes and the
// reported metric names are exactly BENCHMARK.json's.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var workloads []string
	for _, s := range specs {
		workloads = append(workloads, s.name)
	}
	sort.Strings(workloads)
	if got, want := names(bj.Workloads), workloads; !equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	for _, s := range specs {
		s.streams, s.authors, s.rate = 100, 5, 20
		if s.churn > 0 {
			s.churn = 4
			s.offline, s.guard = 200*time.Millisecond, 20*time.Millisecond
		}
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 1, traced: traced, out: t.TempDir(),
				drain: 500 * time.Millisecond, setups: 1, window: 200 * time.Millisecond}
			res, err := execute(s, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.correct {
				t.Fatalf("%s traced=%v: oracle failed: %v", s.name, traced, res.notes)
			}
			got, want := res.e2e, bj.EndToEnd
			if traced {
				got, want = res.layer, bj.PerLayer
			}
			var gotNames []string
			for _, m := range got {
				gotNames = append(gotNames, m.name)
			}
			sort.Strings(gotNames)
			if !equal(gotNames, names(want)) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json lists %v", s.name, traced, gotNames, names(want))
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLayerMapCoversPerLayerMetrics checks that layers.json maps exactly
// BENCHMARK.json's per-layer metrics, each onto metrics that exist.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	var bj struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	var lm struct {
		Metrics map[string]struct{ Moves []string }
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bj, "layers.json": &lm} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	known := map[string]bool{}
	for _, m := range bj.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range bj.PerLayer {
		known[m.Name] = true
		if _, ok := lm.Metrics[m.Name]; !ok {
			t.Errorf("layers.json does not map %s", m.Name)
		}
	}
	for name, m := range lm.Metrics {
		if !known[name] {
			t.Errorf("layers.json maps %s, which BENCHMARK.json does not list", name)
		}
		for _, e := range m.Moves {
			if !known[e] {
				t.Errorf("layers.json: %s moves unknown metric %s", name, e)
			}
		}
	}
}
