package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	support "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run replays each op as the public layer calls the engine
// makes, from the benchmark's own code, and times every call as a span. The
// program is not instrumented further; where it already exports a counter
// for the same work (internal/obs), the traced run prints it beside the
// count made from outside, under an "obs." name.

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit, better string }

// perLayer lists every per-layer metric the traced run prints. A layer the
// workload leaves idle reports 0.
var perLayer = []layerMetric{
	{"support.do_ms", "ms", "lower"},
	{"support.self_ms", "ms", "lower"},
	{"support.update_ms", "ms", "lower"},
	{"server.mutate_ms", "ms", "lower"},
	{"server.refresh_ms", "ms", "lower"},
	{"server.wire_ms", "ms", "lower"},
	{"server.response_kb", "KB", "lower"},
	{"dataset.read_lg_ms", "ms", "lower"},
	{"graph.freeze_ms", "ms", "lower"},
	{"graph.apply_us", "us", "lower"},
	{"graph.refreeze_ms", "ms", "lower"},
	{"isomorph.enumerate_ms", "ms", "lower"},
	{"isomorph.occurrences", "count", "lower"},
	{"isomorph.plan_us", "us", "lower"},
	{"core.context_ms", "ms", "lower"},
	{"core.streaming_context_ms", "ms", "lower"},
	{"core.hyperedges", "count", "lower"},
	{"core.delta_refresh_ms", "ms", "lower"},
	{"core.ball_vertices", "count", "lower"},
	{"core.delta_frac", "ratio", "higher"},
	{"measures.mni_ms", "ms", "lower"},
	{"measures.mi_ms", "ms", "lower"},
	{"measures.mvc_ms", "ms", "lower"},
	{"measures.mies_ms", "ms", "lower"},
	{"measures.mis_ms", "ms", "lower"},
	{"measures.lp_ms", "ms", "lower"},
	{"measures.mcp_ms", "ms", "lower"},
	{"measures.inexact", "count", "lower"},
	{"pattern.extend_ms", "ms", "lower"},
	{"pattern.canonical_ms", "ms", "lower"},
	{"pattern.canonical_calls", "count", "lower"},
	{"pattern.extensions", "count", "lower"},
	{"pattern.unique_frac", "ratio", "higher"},
	{"miner.mine_ms", "ms", "lower"},
	{"miner.self_ms", "ms", "lower"},
	{"miner.candidates", "count", "lower"},
	{"miner.duplicates", "count", "lower"},
	{"miner.frequent_frac", "ratio", "higher"},
	{"miner.refresh_ms", "ms", "lower"},
	{"miner.tracked", "count", "lower"},
	{"store.write_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.page_ins_per_op", "count", "lower"},
	{"store.evictions_per_op", "count", "lower"},
	{"store.wal_log_ms", "ms", "lower"},
	{"store.commit_ms", "ms", "lower"},
	{"store.segments_written_per_commit", "count", "lower"},
	{"store.segments_carried_per_commit", "count", "higher"},
	{"store.bytes_written_per_op", "bytes", "lower"},
	{"obs.page_ins_per_op", "count", "lower"},
	{"obs.evictions_per_op", "count", "lower"},
	{"obs.wal_fsyncs_per_op", "count", "lower"},
	{"obs.commits_per_op", "count", "lower"},
	{"obs.delta_frac", "ratio", "higher"},
	{"trace.untraced_op_ms", "ms", "lower"},
	{"trace.traced_op_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.spans_per_op", "count", "lower"},
}

// span is one timed call. Spans of one op share Op; Parent indexes the
// enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	op    int
	count map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, op: -1, count: map[string]float64{}}
}

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// totals returns, per span name, the summed duration and the summed self
// time (duration minus the part covered by child spans), counting only the
// spans of traced ops (Op >= 0).
func (t *tracer) totals() (total, self map[string]time.Duration, calls map[string]int) {
	total, self, calls = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		calls[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return total, self, calls
}

// setupTotals sums the spans of the set-up replay (Op < 0).
func (t *tracer) setupTotals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op < 0 {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// obsCounters reads the program's own counters.
func obsCounters() map[string]float64 {
	r := obs.Default
	out := map[string]float64{
		"page_ins":    float64(r.CounterValue("repro_store_page_ins_total")),
		"evictions":   float64(r.CounterValue("repro_store_evictions_total")),
		"commits":     float64(r.CounterValue("repro_store_commits_total")),
		"delta":       float64(r.CounterValue("repro_delta_refreshes_total")),
		"delta_delta": float64(r.CounterValue("repro_delta_delta_refreshes_total")),
		"wal_fsyncs":  0,
	}
	if h := r.Histogram("repro_wal_fsync_seconds"); h != nil {
		out["wal_fsyncs"] = float64(h.Count())
	}
	// The engine times the phases of Do itself: plan, enumerate, aggregate
	// and mine.
	for _, name := range []string{"plan", "enumerate", "aggregate", "mine"} {
		if h := r.Histogram("repro_engine_" + name + "_seconds"); h != nil {
			out["engine_phases"] += h.Sum()
		}
	}
	return out
}

// replayer is a workload that can replay its op as layer calls.
type replayer interface {
	workload
	// traceSetup repeats the program-side set-up as layer calls.
	traceSetup(t *tracer, scratch string) error
	// replay runs traced op i and checks that the layer calls reach the
	// engine's answer.
	replay(t *tracer, i int) error
	// finish turns the spans and counts into per-layer metrics.
	finish(t *tracer, ops int, m map[string]float64)
}

// runTraced sets the workload up, times untraced ops for a third of d, then
// replays ops as traced layer calls for the rest, and reports the per-layer
// metrics.
func runTraced(name string, seed uint64, d time.Duration, scratch, out string) (*result, error) {
	sp := workloads[name]
	w := sp.make(seed, filepath.Join(scratch, "w")).(replayer)
	if err := os.MkdirAll(filepath.Join(scratch, "w"), 0o755); err != nil {
		return nil, err
	}
	t := newTracer()
	if err := w.traceSetup(t, scratch); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	lat, opErrs, _, _ := timedPhase(w, sp.round, d/3)
	// The untraced ops are checked against the oracle like a plain run's;
	// the traced ones against the engine's own answers.
	untraced := len(lat)
	checkErrs := w.check(untraced)
	failed := 0
	for i := range lat {
		if err := firstErr(opErrs[i], checkErrs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", i, err)
			failed++
		}
	}

	runtime.GC()
	obs0 := obsCounters()
	traced := 0
	start := time.Now()
	for i := 0; ; i++ {
		if i%sp.round == 0 && i >= minOps/4 && time.Since(start) >= d-d/3 {
			break
		}
		t.op = i
		root := t.begin("op")
		err := w.replay(t, i)
		t.end(root)
		traced++
		if err != nil {
			fmt.Fprintf(os.Stderr, "traced operation %d failed: %v\n", i, err)
			failed++
		}
	}
	obs1 := obsCounters()
	closeErr := w.close()
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "after shutdown:", closeErr)
	}

	m := map[string]float64{}
	for k, v := range t.setupTotals() {
		m[k+"_ms"] = ms(v)
	}
	w.finish(t, traced, m)
	per := func(k string) float64 { return (obs1[k] - obs0[k]) / float64(traced) }
	m["obs.page_ins_per_op"] = per("page_ins")
	m["obs.evictions_per_op"] = per("evictions")
	m["obs.wal_fsyncs_per_op"] = per("wal_fsyncs")
	m["obs.commits_per_op"] = per("commits")
	if m["support.do_ms"] > 0 {
		// Do's own work: its time minus the phases the engine reports.
		m["support.self_ms"] = m["support.do_ms"] - per("engine_phases")*1e3
	}
	if dd := obs1["delta"] - obs0["delta"]; dd > 0 {
		m["obs.delta_frac"] = (obs1["delta_delta"] - obs0["delta_delta"]) / dd
	}
	m["trace.overhead_ms"] = m["trace.traced_op_ms"] - m["trace.untraced_op_ms"]
	m["trace.spans_per_op"] = float64(len(t.spans)) / float64(traced)

	if err := writeSpans(out, t.spans); err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0 && closeErr == nil, Attempted: untraced + traced, Failed: failed, Metrics: map[string]metric{}}
	for _, lm := range perLayer {
		res.Metrics[lm.name] = metric{Value: m[lm.name], Unit: lm.unit}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp divides a span total by the op count, in milliseconds.
func perOp(total map[string]time.Duration, name string, ops int) float64 {
	return ms(total[name]) / float64(ops)
}

// traceParse and traceFreeze are the set-up layer calls every workload
// makes.
func traceParse(t *tracer, text, name string) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	t.timed("dataset.read_lg", func() { g, err = parseLG(text, name) })
	return g, err
}

func traceFreeze(t *tracer, g *graph.Graph, shards int) *graph.Snapshot {
	var snap *graph.Snapshot
	t.timed("graph.freeze", func() { snap = g.FreezeSharded(graph.FreezeOptions{Shards: shards}) })
	return snap
}

// ---------------------------------------------------------------- mine-cold

func (w *mineCold) traceSetup(t *tracer, _ string) error {
	g, err := traceParse(t, w.text, "mine-cold")
	if err != nil {
		return err
	}
	traceFreeze(t, g, 0)
	return nil
}

// replay runs Engine.Do, then the miner's level-wise fixpoint as
// pattern.Extend / CanonicalCode, core.NewContext and MNI.Compute calls, and
// requires the same frequent patterns and supports.
func (w *mineCold) replay(t *tracer, _ int) error {
	var resp *support.Response
	var err error
	t.timed("support.do", func() { resp, err = w.eng.Do(w.req) })
	if err != nil {
		return err
	}
	snap, _ := w.eng.Current()
	r := t.begin("replay")
	got, err := replayMine(t, snap)
	t.end(r)
	if err != nil {
		return err
	}
	want := make([]string, len(resp.Mining.Patterns))
	for i, fp := range resp.Mining.Patterns {
		want[i] = fmt.Sprintf("%s=%v", fp.Pattern.CanonicalCode(), fp.Support)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("replayed mining found %d patterns, Engine.Do %d, or they differ", len(got), len(want))
	}
	return nil
}

func replayMine(t *tracer, snap *graph.Snapshot) ([]string, error) {
	type queued struct {
		p    *pattern.Pattern
		code string
	}
	canonical := func(p *pattern.Pattern) string {
		var c string
		t.timed("pattern.canonical", func() { c = p.CanonicalCode() })
		t.count["pattern.canonical_calls"]++
		return c
	}
	seen := map[string]bool{}
	var frontier []queued
	pairs := map[[2]graph.Label]bool{}
	for i := int32(0); i < int32(snap.NumVertices()); i++ {
		for _, j := range snap.NeighborsAt(i) {
			a, b := snap.LabelAt(i), snap.LabelAt(j)
			if a > b {
				a, b = b, a
			}
			pairs[[2]graph.Label{a, b}] = true
		}
	}
	for pr := range pairs {
		p := pattern.SingleEdge(pr[0], pr[1])
		code := canonical(p)
		if !seen[code] {
			seen[code] = true
			frontier = append(frontier, queued{p, code})
		}
	}
	labels := snap.Labels()
	var found []string
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].code < frontier[j].code })
		var next []queued
		for _, q := range frontier {
			t.timed("isomorph.plan", func() { isomorph.Explain(snap, q.p, isomorph.Options{Parallelism: 1}) })
			var ctx *core.Context
			var err error
			t.timed("core.streaming_context", func() {
				ctx, err = core.NewContext(nil, q.p, core.Options{Parallelism: 1, Streaming: true, Snapshot: snap})
			})
			if err != nil {
				return nil, err
			}
			t.count["isomorph.occurrences"] += float64(ctx.NumOccurrences())
			var r measures.Result
			t.timed("measures.mni", func() { r, err = measures.MNI{}.Compute(ctx) })
			if err != nil {
				return nil, err
			}
			t.count["miner.candidates"]++
			if r.Value < mineMinSup {
				continue
			}
			t.count["miner.frequent"]++
			found = append(found, fmt.Sprintf("%s=%v", q.code, r.Value))
			var exts []pattern.Extension
			t.timed("pattern.extend", func() { exts = q.p.Extend(labels) })
			for _, ext := range exts {
				if ext.Result.Size() > mineMaxNodes {
					continue
				}
				t.count["pattern.extensions"]++
				code := canonical(ext.Result)
				if seen[code] {
					t.count["miner.duplicates"]++
					continue
				}
				seen[code] = true
				next = append(next, queued{ext.Result, code})
			}
		}
		frontier = next
	}
	return found, nil
}

func (w *mineCold) finish(t *tracer, ops int, m map[string]float64) {
	total, self, _ := t.totals()
	n := float64(ops)
	m["support.do_ms"] = perOp(total, "support.do", ops)
	m["isomorph.plan_us"] = perOp(total, "isomorph.plan", ops) * 1e3 / (t.count["miner.candidates"] / n)
	m["isomorph.occurrences"] = t.count["isomorph.occurrences"] / n
	m["core.streaming_context_ms"] = perOp(total, "core.streaming_context", ops)
	m["measures.mni_ms"] = perOp(total, "measures.mni", ops)
	m["pattern.extend_ms"] = perOp(total, "pattern.extend", ops)
	m["pattern.canonical_ms"] = perOp(total, "pattern.canonical", ops)
	m["pattern.canonical_calls"] = t.count["pattern.canonical_calls"] / n
	m["pattern.extensions"] = t.count["pattern.extensions"] / n
	if e := t.count["pattern.extensions"]; e > 0 {
		m["pattern.unique_frac"] = (e - t.count["miner.duplicates"]) / e
	}
	m["trace.untraced_op_ms"] = m["support.do_ms"]
	m["trace.traced_op_ms"] = perOp(total, "replay", ops) - perOp(total, "isomorph.plan", ops)
	m["miner.mine_ms"] = perOp(total, "replay", ops)
	m["miner.self_ms"] = perOp(self, "replay", ops)
	m["miner.candidates"] = t.count["miner.candidates"] / n
	m["miner.duplicates"] = t.count["miner.duplicates"] / n
	if c := t.count["miner.candidates"]; c > 0 {
		m["miner.frequent_frac"] = t.count["miner.frequent"] / c
	}
}

// ----------------------------------------------------------- measures-store

func (w *measuresStore) traceSetup(t *tracer, scratch string) error {
	g, err := traceParse(t, w.text, "measures-store")
	if err != nil {
		return err
	}
	snap := traceFreeze(t, g, storeShards)
	dir := filepath.Join(scratch, "traced-store")
	t.timed("store.write", func() { err = store.Write(snap, dir) })
	if err != nil {
		return err
	}
	var st *store.Store
	t.timed("store.open", func() { st, err = store.Open(dir, store.Options{}) })
	if err != nil {
		return err
	}
	return st.Close()
}

// measureSpan groups the default measure set into the per-layer metrics.
var measureSpan = map[string]string{
	support.MNI: "measures.mni", support.MI: "measures.mi",
	support.MVC: "measures.mvc", support.MVCApprox: "measures.mvc",
	support.MIES: "measures.mies", support.MIS: "measures.mis",
	support.NuMVC: "measures.lp", support.NuMIES: "measures.lp",
	support.MCP: "measures.mcp",
}

// replay runs Engine.Do per pattern, then the same evaluation as
// isomorph.Explain / EnumerateSnapshot, core.NewContext and one Compute per
// default measure, and requires the same values.
func (w *measuresStore) replay(t *tracer, _ int) error {
	res0, _ := w.eng.Residency()
	snap, _ := w.eng.Current()
	iopts := isomorph.Options{Parallelism: 1}
	for i, p := range w.progPat {
		var resp *support.Response
		var err error
		t.timed("support.do", func() { resp, err = w.eng.Do(&support.Request{Pattern: p}) })
		if err != nil {
			return err
		}
		r := t.begin("replay")
		t.timed("isomorph.plan", func() { isomorph.Explain(snap, p, iopts) })
		var occs []*isomorph.Occurrence
		t.timed("isomorph.enumerate", func() { occs = isomorph.EnumerateSnapshot(snap, p, iopts) })
		t.count["isomorph.occurrences"] += float64(len(occs))
		var ctx *core.Context
		t.timed("core.context", func() { ctx, err = core.NewContext(nil, p, core.Options{Parallelism: 1, Snapshot: snap}) })
		if err != nil {
			t.end(r)
			return err
		}
		t.count["core.hyperedges"] += float64(ctx.OccurrenceHypergraph().NumEdges() + ctx.InstanceHypergraph().NumEdges())
		for _, meas := range measures.DefaultSet() {
			name := meas.Name()
			sp := measureSpan[name]
			if sp == "" {
				sp = "measures.raw"
			}
			var got measures.Result
			t.timed(sp, func() { got, err = meas.Compute(ctx) })
			if err != nil {
				t.end(r)
				return err
			}
			want := resp.Evaluation.Results[name]
			if got.Value != want.Value || got.Exact != want.Exact {
				t.end(r)
				return fmt.Errorf("pattern %v: replayed %s = %v (exact %v), Engine.Do %v (exact %v)", w.pats[i], name, got.Value, got.Exact, want.Value, want.Exact)
			}
			if !got.Exact && name != support.MVCApprox && name != support.MCP {
				t.count["measures.inexact"]++
			}
		}
		t.end(r)
	}
	res1, _ := w.eng.Residency()
	t.count["store.page_ins"] += float64(res1.PageIns - res0.PageIns)
	t.count["store.evictions"] += float64(res1.Evictions - res0.Evictions)
	return nil
}

func (w *measuresStore) finish(t *tracer, ops int, m map[string]float64) {
	total, _, _ := t.totals()
	n := float64(ops)
	m["support.do_ms"] = perOp(total, "support.do", ops)
	for _, k := range []string{"mni", "mi", "mvc", "mies", "mis", "lp", "mcp"} {
		m["measures."+k+"_ms"] = perOp(total, "measures."+k, ops)
	}
	m["isomorph.enumerate_ms"] = perOp(total, "isomorph.enumerate", ops)
	m["isomorph.occurrences"] = t.count["isomorph.occurrences"] / n
	m["isomorph.plan_us"] = perOp(total, "isomorph.plan", ops) * 1e3 / float64(len(w.progPat))
	m["core.context_ms"] = perOp(total, "core.context", ops)
	m["core.hyperedges"] = t.count["core.hyperedges"] / n
	m["measures.inexact"] = t.count["measures.inexact"] / n
	m["trace.untraced_op_ms"] = m["support.do_ms"]
	m["trace.traced_op_ms"] = perOp(total, "replay", ops) - perOp(total, "isomorph.plan", ops) - m["isomorph.enumerate_ms"]
	m["store.page_ins_per_op"] = t.count["store.page_ins"] / n
	m["store.evictions_per_op"] = t.count["store.evictions"] / n
}

// ------------------------------------------------------------- mutate-serve

// mutateReplay is the layer-call twin of the served engine: a store.DB with
// an incremental miner and one delta context per seed edge pattern, fed the
// same mutation batches.
type mutateReplay struct {
	dir    string
	db     *store.DB
	inc    *miner.Incremental
	deltas []*core.DeltaContext
	ops    int
}

func (w *mutateServe) traceSetup(t *tracer, scratch string) error {
	g, err := traceParse(t, w.text, "mutate-serve")
	if err != nil {
		return err
	}
	snap := traceFreeze(t, g, serveShards)
	dir := filepath.Join(scratch, "traced-store")
	t.timed("store.write", func() { err = store.Write(snap, dir) })
	if err != nil {
		return err
	}
	var db *store.DB
	t.timed("store.open", func() { db, err = store.OpenDB(dir, 0) })
	if err != nil {
		return err
	}
	w.rpDir = filepath.Join(scratch, "replay")
	return db.Close()
}

// startReplay builds the layer-call twin from the served engine's current
// snapshot, so that both start the traced phase in the same state.
func (w *mutateServe) startReplay() error {
	snap, _ := w.eng.Current()
	rp := &mutateReplay{dir: w.rpDir}
	if err := store.Write(snap, rp.dir); err != nil {
		return err
	}
	var err error
	if rp.db, err = store.OpenDB(rp.dir, 0); err != nil {
		return err
	}
	w.rp = rp
	rp.inc, err = miner.NewIncremental(rp.db.Graph(), miner.Config{
		MinSupport: serveMinSup, MaxPatternSize: serveMaxNodes, Measure: measures.MNI{}, EnumParallelism: 1,
	})
	if err != nil {
		return err
	}
	labels := rp.db.Graph().Labels()
	for i, a := range labels {
		for _, b := range labels[i:] {
			dc, err := core.NewDeltaContext(rp.db.Graph(), pattern.SingleEdge(a, b), core.Options{Parallelism: 1})
			if err != nil {
				return err
			}
			rp.deltas = append(rp.deltas, dc)
		}
	}
	return nil
}

// replay sends op i's batch to the served engine in one of three ways, in
// turn: over HTTP, as direct server handler calls, or as Engine.Update plus
// a handler refresh. It then applies the batch to the replay database as
// graph mutations, DB.Log, FreezeSharded, DB.Commit (every commitEvery-th
// op), delta-context refreshes and Incremental.Refresh, and requires the
// replayed frequent set to equal the served one.
func (w *mutateServe) replay(t *tracer, i int) error {
	if w.rp == nil {
		if err := w.startReplay(); err != nil {
			return err
		}
	}
	req := w.nextBatch()
	w.batches = append(w.batches, req)
	ctx := context.Background()
	var body []byte
	var err error
	switch i % 3 {
	case 0:
		t.timed("server.http_mutate", func() { _, err = w.post("/v1/mutate", req) })
		if err == nil {
			t.timed("server.http_refresh", func() { body, err = w.post("/v1/sessions/"+w.sessID+"/refresh", nil) })
		}
		t.count["server.response_bytes"] += float64(len(body))
		t.count["server.http_ops"]++
	case 1:
		t.timed("server.mutate", func() { _, err = w.srv.Mutate(ctx, &req) })
		if err == nil {
			body, err = w.refreshDirect(t, ctx)
		}
	case 2:
		t.timed("support.update", func() {
			_, err = w.eng.Update(func(g *support.Graph) error { return applyBatch(g, req, nil) })
		})
		if err == nil {
			body, err = w.refreshDirect(t, ctx)
		}
	}
	w.sigs = append(w.sigs, bodySignature(body))
	if err != nil {
		return err
	}

	rp := w.rp
	r := t.begin("replay")
	defer t.end(r)
	g := rp.db.Graph()
	if err := applyBatch(g, req, t); err != nil {
		return err
	}
	wal := filepath.Join(rp.dir, store.WALFile)
	wal0 := fileSize(wal)
	t.timed("store.wal_log", func() { err = rp.db.Log() })
	if err != nil {
		return err
	}
	t.count["store.wal_bytes"] += float64(fileSize(wal) - wal0)
	t.timed("graph.refreeze", func() { g.FreezeSharded(rp.db.FreezeOptions()) })
	rp.ops++
	if rp.ops%commitEvery == 0 {
		before := dirSizes(rp.dir)
		var st store.WriteStats
		t.timed("store.commit", func() { st, err = rp.db.Commit() })
		if err != nil {
			return err
		}
		t.count["store.commits"]++
		t.count["store.segments_written"] += float64(st.SegmentsWritten)
		t.count["store.segments_carried"] += float64(st.SegmentsCarried)
		t.count["store.commit_bytes"] += float64(newBytes(before, dirSizes(rp.dir)))
	}
	t.timed("core.delta_refresh", func() {
		for _, dc := range rp.deltas {
			s0 := dc.Stats()
			if err = dc.Refresh(); err != nil {
				return
			}
			s1 := dc.Stats()
			t.count["core.refreshes"] += float64(s1.Refreshes - s0.Refreshes)
			t.count["core.delta_refreshes"] += float64(s1.DeltaRefreshes - s0.DeltaRefreshes)
			if s1.DeltaRefreshes > s0.DeltaRefreshes {
				t.count["core.ball_vertices"] += float64(s1.LastBallVertices)
			}
		}
	})
	if err != nil {
		return err
	}
	var res *miner.Result
	t.timed("miner.refresh", func() { res, err = rp.inc.Refresh() })
	if err != nil {
		return err
	}
	t.count["miner.tracked"] += float64(rp.inc.TrackedPatterns())
	return sameFrequentSet(res, body)
}

// refreshDirect calls the session refresh handler and renders its answer
// as the HTTP body would carry it, for the post-run check.
func (w *mutateServe) refreshDirect(t *tracer, ctx context.Context) ([]byte, error) {
	var sr *server.SessionResponse
	var err error
	t.timed("server.refresh", func() { sr, err = w.srv.RefreshSession(ctx, &server.SessionRequest{Session: w.sessID}) })
	if err != nil {
		return nil, err
	}
	return json.Marshal(sr)
}

// applyBatch applies a mutation batch in the server's order, additions
// first; with a tracer each mutation is a graph.apply span.
func applyBatch(g *graph.Graph, req server.MutateRequest, t *tracer) error {
	var err error
	step := func(f func() error) {
		if err != nil {
			return
		}
		if t == nil {
			err = f()
			return
		}
		t.timed("graph.apply", func() { err = f() })
		t.count["graph.mutations"]++
	}
	for _, e := range req.AddEdges {
		step(func() error { return g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1])) })
	}
	for _, e := range req.RemoveEdges {
		step(func() error { return g.RemoveEdge(graph.VertexID(e[0]), graph.VertexID(e[1])) })
	}
	return err
}

// sameFrequentSet compares a replayed mining result with a served session
// answer up to isomorphism, supports included.
func sameFrequentSet(res *miner.Result, body []byte) error {
	var sr server.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("decode refresh: %w", err)
	}
	if len(sr.Result.Patterns) != len(res.Patterns) {
		return fmt.Errorf("replay has %d frequent patterns, the session %d", len(res.Patterns), len(sr.Result.Patterns))
	}
	set := newPatternSet()
	sup := map[int]float64{}
	for _, fp := range res.Patterns {
		i, _ := set.add(oraclePattern(fp.Pattern))
		sup[i] = fp.Support
	}
	for _, pw := range sr.Result.Patterns {
		p := opat{labels: pw.Labels}
		for _, e := range pw.Edges {
			p.edges = append(p.edges, ekey(e[0], e[1]))
		}
		if i := set.find(p); i < 0 || sup[i] != pw.Support || !pw.Exact {
			return fmt.Errorf("session pattern %v (support %v) differs from the replay", p, pw.Support)
		}
	}
	return nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

func dirSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			out[e.Name()] = info.Size()
		}
	}
	return out
}

// newBytes counts the bytes of files that are new or changed size: the
// segments and manifest a commit wrote. The WAL is counted at append time.
func newBytes(before, after map[string]int64) int64 {
	var n int64
	for name, size := range after {
		if old, ok := before[name]; name != store.WALFile && (!ok || old != size) {
			n += size
		}
	}
	return n
}

func (w *mutateServe) finish(t *tracer, ops int, m map[string]float64) {
	total, _, calls := t.totals()
	n := float64(ops)
	mean := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return ms(total[name]) / float64(calls[name])
	}
	m["server.mutate_ms"] = mean("server.mutate")
	m["server.refresh_ms"] = mean("server.refresh")
	m["server.wire_ms"] = mean("server.http_mutate") + mean("server.http_refresh") - m["server.mutate_ms"] - m["server.refresh_ms"]
	if h := t.count["server.http_ops"]; h > 0 {
		m["server.response_kb"] = t.count["server.response_bytes"] / h / 1e3
	}
	m["support.update_ms"] = mean("support.update")
	m["graph.apply_us"] = mean("graph.apply") * 1e3
	m["graph.refreeze_ms"] = perOp(total, "graph.refreeze", ops)
	m["store.wal_log_ms"] = perOp(total, "store.wal_log", ops)
	m["store.commit_ms"] = mean("store.commit")
	if c := t.count["store.commits"]; c > 0 {
		m["store.segments_written_per_commit"] = t.count["store.segments_written"] / c
		m["store.segments_carried_per_commit"] = t.count["store.segments_carried"] / c
	}
	m["store.bytes_written_per_op"] = (t.count["store.commit_bytes"] + t.count["store.wal_bytes"]) / n
	// Engine.Update's own work beyond the layer calls it makes: graph
	// mutations, WAL append, refreeze and, every commitEvery-th update, a
	// commit. The layer calls are timed on the replay database, so this is
	// an estimate that can read slightly below zero.
	layers := ms(total["graph.apply"])/n + m["graph.refreeze_ms"] + m["store.wal_log_ms"] + ms(total["store.commit"])/n
	m["support.self_ms"] = m["support.update_ms"] - layers
	m["core.delta_refresh_ms"] = perOp(total, "core.delta_refresh", ops)
	if r := t.count["core.refreshes"]; r > 0 {
		m["core.delta_frac"] = t.count["core.delta_refreshes"] / r
	}
	if d := t.count["core.delta_refreshes"]; d > 0 {
		m["core.ball_vertices"] = t.count["core.ball_vertices"] / d
	}
	m["miner.refresh_ms"] = perOp(total, "miner.refresh", ops)
	m["miner.tracked"] = t.count["miner.tracked"] / n
	m["trace.untraced_op_ms"] = m["support.update_ms"] + m["server.refresh_ms"]
	m["trace.traced_op_ms"] = perOp(total, "replay", ops) - m["core.delta_refresh_ms"]
}
