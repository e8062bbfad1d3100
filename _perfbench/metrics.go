package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"bladerunner/internal/tao"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int64
	e2e, layer        []metric
	notes             []string // human-readable lines printed before the result
}

func (res *result) addE2E(name string, v float64, unit string) {
	res.e2e = append(res.e2e, metric{name, v, unit})
}

func (res *result) addLayer(name string, v float64, unit string) {
	res.layer = append(res.layer, metric{name, v, unit})
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// Counter slots read at the traced run's window boundaries.
const (
	cCPU = iota // ns
	cPayloads
	cMutations
	cSubHits
	cSubMiss
	cSubStale
	cCacheHits
	cCacheMiss
	cTAOWrites
	cDenied
	cAlloc
	cGC
	cPause // ns
	numCounters
)

type counters [numCounters]float64

// counters reads the process and the public component counters.
func (r *run) counters() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cCPU] = float64(cpuNow())
	c[cPayloads] = float64(r.payloads.Load())
	c[cMutations] = float64(r.mutations.Load())
	p := r.t.pylon
	c[cSubHits], c[cSubMiss], c[cSubStale] = float64(p.SubCacheHits.Value()), float64(p.SubCacheMiss.Value()), float64(p.SubCacheStale.Value())
	for _, h := range r.t.hosts {
		c[cCacheHits] += float64(h.PayloadCacheHits.Value())
		c[cCacheMiss] += float64(h.PayloadCacheMisses.Value())
	}
	c[cTAOWrites] = float64(r.t.tao.Stats().Writes.Value())
	c[cDenied] = float64(r.t.was.PrivacyDenied.Value())
	c[cAlloc] = float64(ms.TotalAlloc)
	c[cGC] = float64(ms.NumGC)
	c[cPause] = float64(ms.PauseTotalNs)
	return c
}

// sumWindows adds up the counter deltas of the windows with tracing on (or
// off).
func sumWindows(wins []window, on bool) counters {
	var s counters
	for _, w := range wins {
		if w.on != on {
			continue
		}
		for i := range s {
			s[i] += w.to[i] - w.from[i]
		}
	}
	return s
}

// analyze turns the receipts into the run's metrics. blocks are the CPU
// samples at the steady phase's block boundaries.
func (r *run) analyze(setups []float64, blocks []cpuSample, wins []window) *result {
	res := &result{}
	D := r.o.drain
	blockLen := max(int64(r.o.seconds*float64(time.Second)/steadyBlocks), 1)
	var (
		acct                   tally
		latency, mutate, late  dist
		blockLat               [steadyBlocks]dist
		resumeLat              dist
		missFlagged, missQuiet int64
		peakExpected, peakLast [numPhases]int64
		traced                 []delivery
		gapped                 = make(map[int32]bool) // streams left missing a message
	)
	for _, m := range r.p.muts {
		acct.add(m.err == nil)
		if m.err == nil {
			if seen := m.seenRef.Load(); seen != 0 && seen != m.ref {
				r.fail("m%d: payloads name comment id %d, the mutation wrote %d", m.idx, seen, m.ref)
			}
		}
		if m.phase == steadyPhase {
			late.add(ms(time.Duration(m.start - m.dueAt)))
			if m.err == nil {
				mutate.add(ms(time.Duration(m.end - m.start)))
			}
		}
		segmented := r.tr != nil && m.phase == steadyPhase && inWindow(wins, m.dueAt, r.o.window/10)
		for pos, si := range r.p.groups[m.group] {
			st := r.streams[si]
			if !r.expected(m, st) {
				continue
			}
			got := atomic.LoadInt64(&m.recv[pos])
			sample, ok := censored(m.dueAt, got, D)
			acct.add(ok)
			if !ok {
				if r.flagged(st, m.dueAt) {
					missFlagged++
				} else {
					missQuiet++
				}
				gapped[st.idx] = true
			}
			if m.phase == steadyPhase {
				latency.add(ms(sample))
				b := min(int(int64(m.due)/blockLen), steadyBlocks-1)
				blockLat[b].add(ms(sample))
				if ok && segmented {
					traced = append(traced, delivery{m: m, st: st, host: st.hostIndex(), recv: got})
				}
				continue
			}
			peakExpected[m.phase]++
			if ok && got > peakLast[m.phase] {
				peakLast[m.phase] = got
			}
		}
	}
	// A resume owes the stream every message sequenced to its mailbox
	// before the resubscribe; those sent during its offline episode are
	// missing when still absent at the resume's timeout.
	var byGroup [][]*mutation
	if r.s.app == messengerApp {
		byGroup = make([][]*mutation, len(r.p.groups))
		for _, m := range r.p.muts {
			byGroup[m.group] = append(byGroup[m.group], m)
		}
	}
	for _, rs := range r.resumes {
		st := rs.st
		st.mu.Lock()
		done := rs.done
		st.mu.Unlock()
		sample, ok := censored(rs.sent, done, D)
		acct.add(ok)
		resumeLat.add(ms(sample))
		if ok || byGroup == nil {
			continue
		}
		for _, m := range byGroup[st.group] {
			if m.seq > rs.target || m.err != nil || m.phase != steadyPhase ||
				m.due < rs.offline[0] || m.due > rs.offline[1] {
				continue
			}
			if got := atomic.LoadInt64(&m.recv[st.pos]); got == 0 || got > rs.sent+int64(D) {
				if r.flagged(st, rs.sent) {
					missFlagged++
				} else {
					missQuiet++
				}
				gapped[st.idx] = true
			}
		}
	}
	gaps := len(gapped)
	reordered := r.reordered.Load()
	r.reorderMu.Lock()
	cands := r.reorderCand
	r.reorderMu.Unlock()
	for _, c := range cands {
		early, lateM := r.p.muts[c[0]], r.p.muts[c[1]]
		if early.end != 0 && early.end < lateM.start {
			reordered++
		}
	}

	// End-to-end metrics. Latency and CPU are the median over the steady
	// phase's blocks; peak throughput is the median over the bursts.
	var p50s, p90s, p99s, cpus, peaks dist
	minQ := 1.0
	for b := range blockLat {
		if blockLat[b].n() == 0 {
			continue
		}
		p50s.add(blockLat[b].p50())
		v90, _ := blockLat[b].tail(0.90)
		p90s.add(v90)
		v99, q := blockLat[b].tail(0.99)
		p99s.add(v99)
		minQ = min(minQ, q)
	}
	for b := 1; b < len(blocks); b++ {
		cpus.add(ratio(us(blocks[b].cpu-blocks[b-1].cpu), float64(blocks[b].payloads-blocks[b-1].payloads)))
	}
	for ph := steadyPhase + 1; ph < numPhases; ph++ {
		if peakLast[ph] > r.phaseStart[ph] {
			peaks.add(float64(peakExpected[ph]) / time.Duration(peakLast[ph]-r.phaseStart[ph]).Seconds())
		}
	}
	inOrder := fmt.Sprintf("per-block p50 %.2f p90 %.2f p99 %.2f cpu %.1f; per-burst peak %.0f", p50s.v, p90s.v, p99s.v, cpus.v, peaks.v)
	sort.Float64s(setups)
	res.addE2E("setup_s", quantile(setups, 0.5), "s")
	res.addE2E("delivery_p50_ms", p50s.p50(), "ms")
	res.addE2E("delivery_p90_ms", p90s.p50(), "ms")
	res.addE2E("mutate_p50_ms", mutate.p50(), "ms")
	res.addE2E("cpu_us_per_delivery", cpus.p50(), "us")
	res.addE2E("rss_peak_mb", rssPeakMB(), "MB")
	// Reported but not gated: their run-to-run spread on a shared 2-core
	// machine is too wide for any allowed bound (see README.md).
	blockP99, peak := p99s.p50(), peaks.p50()
	p99, q99 := latency.tail(0.99)

	res.attempted, res.failed = acct.attempted, acct.failed
	res.note("setup_s samples %v", setups)
	res.note("delivery samples %d (steady phase): whole-phase p50 %.3f ms, p%.2f %.3f ms", latency.n(), latency.p50(), 100*q99, p99)
	res.note("delivery_p99_ms %.3f ms (median block; block quantile %.4f or higher); peak_deliveries_per_s %.0f",
		blockP99, minQ, peak)
	res.note("in time order: %s", inOrder)
	res.note("failed_ratio %.6f (%d of %d attempts: mutations, expected deliveries, resumes)", acct.ratio(), acct.failed, acct.attempted)
	res.note("missing messages: %d flagged by flow_status, %d silent; duplicates %d, reordered %d, streams left with gaps %d; flow_status deltas %d, terminations %d",
		missFlagged, missQuiet, r.duplicates.Load(), reordered, gaps, r.flowsSeen.Load(), r.terminations.Load())
	lateP99, _ := late.tail(0.99)
	behind := lateP99 > 10
	res.note("generator lateness p99 %.3f ms%s", lateP99, map[bool]string{true: " — GENERATOR FELL BEHIND ITS SCHEDULE", false: ""}[behind])
	resumeP50 := resumeLat.p50()
	resumeP99, rq := resumeLat.tail(0.99)
	if resumeLat.n() > 0 {
		res.note("resume_p50_ms %.3f ms, resume_p99_ms %.3f ms (quantile %.4f over %d resumes)", resumeP50, resumeP99, rq, resumeLat.n())
	}
	if n := r.sessionLosses.Load(); n > 0 {
		res.note("client sessions lost: %d", n)
	}

	if r.tr != nil {
		r.layerMetrics(res, wins, traced)
		res.addLayer("apps.missing_flagged", float64(missFlagged), "count")
		res.addLayer("apps.missing_silent", float64(missQuiet), "count")
		res.addLayer("apps.duplicates", float64(r.duplicates.Load()), "count")
		res.addLayer("apps.reordered", float64(reordered), "count")
		res.addLayer("apps.gap_streams", float64(gaps), "count")
		res.addLayer("gen.late_ms_p99", lateP99, "ms")
		res.addLayer("gen.behind", map[bool]float64{true: 1, false: 0}[behind], "flag")
		res.addLayer("e2e.delivery_p99_ms", blockP99, "ms")
		res.addLayer("e2e.peak_deliveries_per_s", peak, "1/s")
		res.addLayer("e2e.failed_ratio", acct.ratio(), "ratio")
		res.addLayer("e2e.resume_p50_ms", resumeP50, "ms")
		res.addLayer("e2e.resume_p99_ms", resumeP99, "ms")
	}

	r.fatalMu.Lock()
	res.correct = r.fatalN == 0
	for _, f := range r.fatal {
		res.note("ORACLE: %s", f)
	}
	if r.fatalN > len(r.fatal) {
		res.note("ORACLE: ... %d violations in all", r.fatalN)
	}
	r.fatalMu.Unlock()
	return res
}

// layerMetrics computes the per-layer metrics of a traced run from its
// spans, byte counts and the counters read at window boundaries.
func (r *run) layerMetrics(res *result, wins []window, dels []delivery) {
	tr := r.tr
	spans := tr.snapshot()
	x := indexSpans(spans)
	var kinds [numKinds]dist
	var mutSelf, pubSelf, ctrlCall dist
	for i, s := range spans {
		kinds[s.kind].add(us(time.Duration(s.end - s.start)))
		switch s.kind {
		case kMutate:
			mutSelf.add(us(time.Duration(x.selfTime(i))))
		case kPublish:
			pubSelf.add(us(time.Duration(x.selfTime(i))))
		}
		if r.s.wire && s.kind.crossesCtrl() {
			ctrlCall.add(us(time.Duration(s.end - s.start)))
		}
	}
	var segs [numSegments]dist
	var unattributed, total float64
	for _, d := range dels {
		seg, un, _ := x.segments(d)
		for i := range seg {
			segs[i].add(us(time.Duration(seg[i])))
		}
		unattributed += float64(un)
		total += float64(d.recv - d.m.dueAt)
	}
	on, off := sumWindows(wins, true), sumWindows(wins, false)
	payloads := float64(tr.payloads.Load())
	var hs struct{ overflows, sheds, flows, resumes, expired, catchup int64 }
	for _, h := range r.t.hosts {
		hs.overflows += h.LoopOverflows.Value()
		hs.sheds += h.StreamSheds.Value()
		hs.flows += h.FlowSignals.Value()
		hs.resumes += h.LogResumes.Value()
		hs.expired += h.LogExpired.Value()
		hs.catchup += h.LogCatchUpDeltas.Value()
	}
	var drops int64
	for _, p := range r.t.pops {
		drops += p.DownstreamDrops.Value()
	}

	res.addLayer("was.mutate_us_p50", kinds[kMutate].p50(), "us")
	res.addLayer("was.mutate_self_us_p50", mutSelf.p50(), "us")
	res.addLayer("was.visibility_us_p50", kinds[kVisibility].p50(), "us")
	res.addLayer("was.resolves_per_event", ratio(float64(kinds[kResolve].n()+kinds[kFetch].n()), float64(tr.publishes.Load())), "ratio")
	res.addLayer("was.query_us_p50", kinds[kQuery].p50(), "us")
	res.addLayer("was.queries", float64(kinds[kQuery].n()), "count")
	res.addLayer("was.privacy_denied", on[cDenied], "count")
	res.addLayer("tao.hot_list_len", float64(r.hotListLen()), "count")
	res.addLayer("tao.writes_per_mutation", ratio(on[cTAOWrites], on[cMutations]), "ratio")
	pub99, _ := kinds[kPublish].tail(0.99)
	res.addLayer("pylon.publish_us_p50", kinds[kPublish].p50(), "us")
	res.addLayer("pylon.publish_us_p99", pub99, "us")
	res.addLayer("pylon.publish_self_us_p50", pubSelf.p50(), "us")
	res.addLayer("pylon.subcache_hit_ratio", ratio(on[cSubHits], on[cSubHits]+on[cSubMiss]+on[cSubStale]), "ratio")
	res.addLayer("pylon.fanout_hosts_mean", ratio(float64(tr.fanout.Load()), float64(tr.publishes.Load())), "hosts")
	res.addLayer("pylon.subscribe_us_p50", kinds[kSubscribe].p50(), "us")
	res.addLayer("pylon.unsubscribe_us_p50", kinds[kUnsubscribe].p50(), "us")
	res.addLayer("pylon.subscribes", float64(kinds[kSubscribe].n()), "count")
	res.addLayer("brass.deliver_us_p50", kinds[kDeliver].p50(), "us")
	res.addLayer("brass.dispatch_wait_us_p50", segs[4].p50(), "us")
	res.addLayer("brass.push_to_client_us_p50", segs[6].p50(), "us")
	res.addLayer("brass.payload_cache_hit_ratio", ratio(on[cCacheHits], on[cCacheHits]+on[cCacheMiss]), "ratio")
	res.addLayer("brass.loop_overflows", float64(hs.overflows), "count")
	res.addLayer("brass.stream_sheds", float64(hs.sheds), "count")
	res.addLayer("brass.flow_signals", float64(hs.flows), "count")
	res.addLayer("durlog.resumes", float64(hs.resumes), "count")
	res.addLayer("durlog.catchup_deltas_per_resume", ratio(float64(hs.catchup), float64(hs.resumes)), "ratio")
	res.addLayer("durlog.expired_ratio", ratio(float64(hs.expired), float64(hs.resumes+hs.expired)), "ratio")
	res.addLayer("burst.bytes_per_delivery", ratio(float64(tr.clientBytes.Load()), payloads), "B")
	res.addLayer("burst.frames_per_delivery", ratio(float64(tr.frames.Load()), payloads), "ratio")
	res.addLayer("burst.rewrites_per_delivery", ratio(float64(tr.rewrites.Load()), payloads), "ratio")
	res.addLayer("burst.decode_us_p50", kinds[kDecode].p50(), "us")
	res.addLayer("edge.bytes_per_delivery", ratio(float64(tr.edgeBytes.Load()), payloads), "B")
	res.addLayer("edge.dials", float64(tr.edgeDials.Load()), "count")
	res.addLayer("edge.downstream_drops", float64(drops), "count")
	ctrl99, _ := ctrlCall.tail(0.99)
	res.addLayer("ctrl.call_us_p50", ctrlCall.p50(), "us")
	res.addLayer("ctrl.call_us_p99", ctrl99, "us")
	res.addLayer("ctrl.calls_per_delivery", ratio(float64(ctrlCall.n()), payloads), "ratio")
	res.addLayer("ctrl.bytes_per_call", ratio(float64(tr.ctrlBytes.Load()), float64(ctrlCall.n())), "B")
	res.addLayer("go.alloc_bytes_per_delivery", ratio(off[cAlloc], off[cPayloads]), "B")
	res.addLayer("go.gc_cycles", off[cGC], "count")
	res.addLayer("go.gc_pause_ms", off[cPause]/1e6, "ms")
	res.addLayer("trace.overhead_ratio", ratio(ratio(on[cCPU], on[cPayloads]), ratio(off[cCPU], off[cPayloads])), "ratio")
	res.addLayer("trace.unattributed_ratio", ratio(unattributed, total), "ratio")
	res.addLayer("trace.spans", float64(len(spans)), "count")

	for i, name := range segmentNames {
		res.note("segment %-22s p50 %9.1f us over %d traced deliveries", name, segs[i].p50(), segs[i].n())
	}
	path := filepath.Join(r.o.out, "spans-"+r.s.name+".jsonl")
	if err := writeSpans(path, x, r.hostIDs, dels); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
	} else {
		res.note("spans written to %s", path)
	}
}

// hotListLen is the length of the busiest association list the workload
// grows: the most-commented post, or the longest mailbox.
func (r *run) hotListLen() int {
	best := 0
	if r.s.app == feedApp {
		for g := range r.p.groups {
			best = max(best, r.t.tao.AssocCount(tao.ObjID(r.p.postID(int32(g))), "post_comment"))
		}
		return best
	}
	for _, n := range r.threadDone {
		best = max(best, int(n))
	}
	return best
}

// finite maps NaN and infinities to 0 so every value encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
