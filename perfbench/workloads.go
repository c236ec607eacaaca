package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	support "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/measures"
	"repro/internal/server"
	"repro/internal/store"
)

// Workload inputs. Each op of a workload does the same work: a median over a
// mix of cheap and expensive operations would flip between the two classes.
const (
	// mine-cold: the ROADMAP's mine-mni request (BA n=120, MNI, minsup 3,
	// at most 4 nodes) on a 2-label alphabet. With 3 labels one op takes
	// about 500 ms on a 2-vCPU Xeon virtual machine, too slow for 100
	// samples in a run.
	mineN, mineM, mineLabels = 120, 2, 2
	mineMinSup, mineMaxNodes = 3, 4
	mineShape                = 101

	// measures-store: small enough that every exact solver certifies its
	// answer for every vertex numbering (see README.md for the sizes that
	// do not).
	storeN, storeM, storeLabels = 64, 2, 2
	storeShards                 = 8
	storeBudget                 = "25%"
	storeShape                  = 30

	// mutate-serve.
	serveN, serveM, serveLabels = 2000, 2, 6
	serveMinSup, serveMaxNodes  = 4, 3
	serveShards                 = 4
	serveShape                  = 303
	// commitEvery folds the WAL into the segment store every 4th update, so
	// a quarter of the ops also rewrite segments and fsync them. The op is
	// dominated by the refresh's CPU time, so that the host's fsync latency,
	// which swings several-fold from one minute to the next, is a small
	// share of every op.
	commitEvery = 4
	// batchSize edges are removed and batchSize non-edges added per op, so
	// the edge count stays constant.
	batchSize = 2
	// mutationCycle is the period of the mutation sequence and the
	// workload's round: 16 draw-and-undo pairs. Every run does whole rounds,
	// so its ops are the same mix whatever the run length.
	mutationCycle = 32
)

// engineOpts runs enumeration sequentially: on a 2-core machine shared with
// other work, one op per core keeps latencies comparable across runs.
var engineOpts = support.EngineOptions{Parallelism: 1}

// exactMeasures are the default-set measures that must report Exact; the
// approximations MVC-approx and MCP are not required to.
var exactMeasures = []string{
	support.Occurrences, support.Instances, support.MNI, support.MI, support.MVC,
	support.MIES, support.MIS, support.NuMVC, support.NuMIES,
}

func parseLG(text, name string) (*graph.Graph, error) {
	return dataset.ReadLG(strings.NewReader(text), name)
}

// ---------------------------------------------------------------- mine-cold

type mineCold struct {
	in   input
	text string
	eng  *support.Engine
	req  *support.Request
	warm *support.MinerResult
	// want is the warm-up answer rendered byte for byte; differs records
	// the ops whose answer was not exactly that.
	want    string
	differs map[int]bool
	last    *support.MinerResult
}

func newMineCold(seed uint64, _ string) workload {
	in := barabasiAlbert(mineN, mineM, mineLabels, mineShape, seed)
	return &mineCold{in: in, text: in.lg("mine-cold"), req: mineRequest(), differs: map[int]bool{}}
}

func mineRequest() *support.Request {
	return &support.Request{Mine: &support.MineSpec{
		MinSupport: mineMinSup, MaxPatternSize: mineMaxNodes, Measure: measures.MNI{}, Workers: 1,
	}}
}

func (w *mineCold) setup() error {
	g, err := parseLG(w.text, "mine-cold")
	if err != nil {
		return err
	}
	if w.eng, err = support.NewEngine(g, engineOpts); err != nil {
		return err
	}
	resp, err := w.eng.Do(w.req)
	if err != nil {
		return err
	}
	w.warm = resp.Mining
	w.want = minedText(w.warm)
	return nil
}

func (w *mineCold) op(int) (time.Duration, error) {
	t := time.Now()
	resp, err := w.eng.Do(w.req)
	d := time.Since(t)
	w.last = nil
	if err != nil {
		return d, err
	}
	w.last = resp.Mining
	for _, fp := range resp.Mining.Patterns {
		if !fp.Exact {
			return d, fmt.Errorf("%s: MNI not exact", fp.Pattern)
		}
	}
	return d, nil
}

// settle compares the answer with the warm-up answer.
func (w *mineCold) settle(i int) {
	if w.last != nil && minedText(w.last) != w.want {
		w.differs[i] = true
	}
	w.last = nil
}

// check verifies the warm-up answer against the oracle; every op had to
// return exactly that answer.
func (w *mineCold) check(n int) []error {
	errs := make([]error, n)
	warmErr := checkMined(lgraphFrom(w.in.labels, w.in.edges), w.warm, mineMinSup, mineMaxNodes)
	for i := 0; i < n; i++ {
		switch {
		case warmErr != nil:
			errs[i] = warmErr
		case w.differs[i]:
			errs[i] = fmt.Errorf("mining answer differs from the checked warm-up answer")
		}
	}
	return errs
}

func (w *mineCold) close() error { return w.eng.Close() }

// minedText renders a mining answer byte for byte.
func minedText(res *support.MinerResult) string {
	var b strings.Builder
	for _, fp := range res.Patterns {
		fmt.Fprintf(&b, "%v=%v/%v;", oraclePattern(fp.Pattern), fp.Support, fp.Exact)
	}
	return b.String()
}

// checkMined requires a mining answer to equal the oracle miner's up to
// isomorphism, supports included, with every support exact. The oracle finds
// every MNI-frequent pattern once, so this makes each support the oracle's
// MNI and at least minsup, rules out a pattern reported twice, and makes the
// set closed under subpatterns and complete under frequent extensions.
func checkMined(g *lgraph, res *support.MinerResult, minsup, maxNodes int) error {
	var pats []opat
	var sups []float64
	for _, fp := range res.Patterns {
		if !fp.Exact {
			return fmt.Errorf("pattern %v: MNI not exact", oraclePattern(fp.Pattern))
		}
		pats = append(pats, oraclePattern(fp.Pattern))
		sups = append(sups, fp.Support)
	}
	want := mineMNI(g, minsup, maxNodes)
	if answerSignature(pats, sups) != minedSignature(want) {
		return fmt.Errorf("%d patterns reported, the oracle finds %d MNI-frequent ones; the sets or supports differ", len(pats), len(want))
	}
	return nil
}

// minedSignature is the answerSignature of the oracle miner's answer.
func minedSignature(mined []minedPattern) uint64 {
	pats := make([]opat, len(mined))
	sups := make([]float64, len(mined))
	for i, m := range mined {
		pats[i], sups[i] = m.p, float64(m.support)
	}
	return answerSignature(pats, sups)
}

// ----------------------------------------------------------- measures-store

// storePatterns is the pattern round in base labels: a single edge, a
// 3-path and a triangle.
var storePatterns = []opat{
	{labels: []int{1, 2}, edges: [][2]int{{0, 1}}},
	{labels: []int{1, 2, 1}, edges: [][2]int{{0, 1}, {1, 2}}},
	{labels: []int{1, 1, 2}, edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},
}

type measuresStore struct {
	in      input
	text    string
	dir     string
	pats    []opat
	progPat []*support.Pattern
	eng     *support.Engine
	warm    []*support.Evaluation
	want    string
	differs map[int]bool
	last    []*support.Evaluation
}

func newMeasuresStore(seed uint64, scratch string) workload {
	in := barabasiAlbert(storeN, storeM, storeLabels, storeShape, seed)
	w := &measuresStore{in: in, text: in.lg("measures-store"), dir: filepath.Join(scratch, "store"), differs: map[int]bool{}}
	for _, p := range storePatterns {
		q := opat{edges: p.edges}
		for _, l := range p.labels {
			q.labels = append(q.labels, in.rename[l])
		}
		w.pats = append(w.pats, q)
	}
	return w
}

func (w *measuresStore) setup() error {
	w.progPat = w.progPat[:0]
	for _, p := range w.pats {
		pp, err := programPattern(p)
		if err != nil {
			return err
		}
		w.progPat = append(w.progPat, pp)
	}
	g, err := parseLG(w.text, "measures-store")
	if err != nil {
		return err
	}
	if err := store.Write(g.FreezeSharded(graph.FreezeOptions{Shards: storeShards}), w.dir); err != nil {
		return err
	}
	opts := engineOpts
	opts.ResidencyBudget = storeBudget
	if w.eng, err = support.OpenStoreEngine(w.dir, opts); err != nil {
		return err
	}
	w.warm, err = w.round()
	w.want = evaluationSignature(w.warm)
	return err
}

// round evaluates the default measure set for every pattern of the round.
func (w *measuresStore) round() ([]*support.Evaluation, error) {
	out := make([]*support.Evaluation, len(w.progPat))
	for i, p := range w.progPat {
		resp, err := w.eng.Do(&support.Request{Pattern: p})
		if err != nil {
			return out, err
		}
		out[i] = resp.Evaluation
		for _, name := range exactMeasures {
			if r, ok := resp.Evaluation.Results[name]; !ok || !r.Exact {
				return out, fmt.Errorf("pattern %v: %s missing or not exact", w.pats[i], name)
			}
		}
	}
	return out, nil
}

func (w *measuresStore) op(int) (time.Duration, error) {
	t := time.Now()
	evs, err := w.round()
	d := time.Since(t)
	w.last = evs
	return d, err
}

// settle compares the round's values with the warm-up round's.
func (w *measuresStore) settle(i int) {
	if evaluationSignature(w.last) != w.want {
		w.differs[i] = true
	}
	w.last = nil
}

func (w *measuresStore) check(n int) []error {
	errs := make([]error, n)
	warmErr := checkEvaluations(lgraphFrom(w.in.labels, w.in.edges), w.pats, w.warm)
	for i := 0; i < n; i++ {
		switch {
		case warmErr != nil:
			errs[i] = warmErr
		case w.differs[i]:
			errs[i] = fmt.Errorf("measure values differ from the checked warm-up round")
		}
	}
	return errs
}

func (w *measuresStore) close() error { return w.eng.Close() }

func evaluationSignature(evs []*support.Evaluation) string {
	var b strings.Builder
	for _, ev := range evs {
		if ev == nil {
			b.WriteString("nil;")
			continue
		}
		for _, name := range ev.Names() {
			r := ev.Results[name]
			fmt.Fprintf(&b, "%s=%v/%v,", name, r.Value, r.Exact)
		}
		b.WriteString(";")
	}
	return b.String()
}

// chainTolerance absorbs floating-point noise in the LP relaxations.
const chainTolerance = 1e-6

// checkEvaluations compares occurrence and instance counts and MNI with the
// oracle and checks the paper's bounding chain
// σ_MIS = σ_MIES ≤ ν_MIES = ν_MVC ≤ σ_MVC ≤ σ_MI ≤ σ_MNI.
func checkEvaluations(g *lgraph, pats []opat, evs []*support.Evaluation) error {
	for i, p := range pats {
		ev := evs[i]
		if ev == nil {
			return fmt.Errorf("pattern %v: no evaluation", p)
		}
		v := func(name string) float64 { return ev.Results[name].Value }
		occs := occurrences(g, p)
		if int(v(support.Occurrences)) != len(occs) || int(v(support.Instances)) != instances(p, occs) || int(v(support.MNI)) != mni(p, occs) {
			return fmt.Errorf("pattern %v: occurrences/instances/MNI %v/%v/%v, oracle %d/%d/%d", p,
				v(support.Occurrences), v(support.Instances), v(support.MNI), len(occs), instances(p, occs), mni(p, occs))
		}
		chain := []struct {
			lo, hi string
			equal  bool
		}{
			{support.MIS, support.MIES, true},
			{support.MIES, support.NuMIES, false},
			{support.NuMIES, support.NuMVC, true},
			{support.NuMVC, support.MVC, false},
			{support.MVC, support.MI, false},
			{support.MI, support.MNI, false},
		}
		for _, c := range chain {
			lo, hi := v(c.lo), v(c.hi)
			if lo > hi+chainTolerance || (c.equal && math.Abs(lo-hi) > chainTolerance) {
				return fmt.Errorf("pattern %v: bounding chain broken at %s=%v, %s=%v", p, c.lo, lo, c.hi, hi)
			}
		}
	}
	return nil
}

// ------------------------------------------------------------- mutate-serve

type mutateServe struct {
	in   input
	text string
	dir  string

	eng    *support.Engine
	srv    *server.Server
	http   *httptest.Server
	client *http.Client
	sessID string

	// model is the edge set as the benchmark's own mutations left it.
	model   map[[2]int]bool
	mutRand *rng
	// batches and sigs record every op's mutation and the signature of its
	// refresh answer for the post-run check; the warm-up op comes first.
	batches []server.MutateRequest
	sigs    []uint64
	last    []byte
	// invalid marks the ops whose answer did not decode or carried an
	// inexact support.
	invalid map[int]bool
	// rp is the layer-call twin of the traced run, built in rpDir; nil
	// otherwise.
	rp    *mutateReplay
	rpDir string
}

func newMutateServe(seed uint64, scratch string) workload {
	in := barabasiAlbert(serveN, serveM, serveLabels, serveShape, seed)
	return &mutateServe{in: in, text: in.lg("mutate-serve"), dir: filepath.Join(scratch, "durable"), invalid: map[int]bool{}}
}

func (w *mutateServe) setup() error {
	w.model = map[[2]int]bool{}
	for _, e := range w.in.edges {
		w.model[e] = true
	}
	w.mutRand = &rng{s: serveShape ^ 0x5eed}
	g, err := parseLG(w.text, "mutate-serve")
	if err != nil {
		return err
	}
	if err := store.Write(g.FreezeSharded(graph.FreezeOptions{Shards: serveShards}), w.dir); err != nil {
		return err
	}
	if w.eng, err = support.OpenDurableEngine(w.dir, commitEvery, engineOpts); err != nil {
		return err
	}
	w.srv = server.New(w.eng, server.Config{})
	w.http = httptest.NewServer(w.srv.Handler())
	w.client = w.http.Client()
	body, err := w.post("/v1/sessions", server.OpenSessionRequest{Mine: server.MineWire{
		MinSupport: serveMinSup, MaxPatternSize: serveMaxNodes, Workers: 1,
	}})
	if err != nil {
		return err
	}
	var sr server.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	w.sessID = sr.Session
	if _, err = w.op(-1); err != nil {
		return err
	}
	w.settle(-1)
	return nil
}

// nextBatch returns the next op's mutation and applies it to the model.
// Batches come in pairs: the first removes batchSize edges of the input
// graph and adds batchSize non-edges, the second undoes it. Every pair thus
// starts from the input graph, and the sequence repeats every
// mutationCycle batches. The draws are made in base numbering from a fixed
// generator and then renumbered, so every seed sends the same mutations up
// to its renumbering.
func (w *mutateServe) nextBatch() server.MutateRequest {
	var req server.MutateRequest
	if n := len(w.batches); n >= mutationCycle {
		req = w.batches[n-mutationCycle]
	} else if n%2 == 1 {
		req = server.MutateRequest{AddEdges: w.batches[n-1].RemoveEdges, RemoveEdges: w.batches[n-1].AddEdges}
	} else {
		for len(req.RemoveEdges) < batchSize {
			e := w.renumber(w.in.base[w.mutRand.intn(len(w.in.base))])
			if !containsEdge(req.RemoveEdges, e) {
				req.RemoveEdges = append(req.RemoveEdges, e)
			}
		}
		for len(req.AddEdges) < batchSize {
			u, v := w.mutRand.intn(serveN), w.mutRand.intn(serveN)
			e := w.renumber([2]int{u, v})
			if u != v && !w.model[e] && !containsEdge(req.AddEdges, e) {
				req.AddEdges = append(req.AddEdges, e)
			}
		}
	}
	for _, e := range req.RemoveEdges {
		delete(w.model, e)
	}
	for _, e := range req.AddEdges {
		w.model[e] = true
	}
	return req
}

// renumber maps an edge in base numbering to the input's numbering.
func (w *mutateServe) renumber(e [2]int) [2]int { return ekey(w.in.ids[e[0]], w.in.ids[e[1]]) }

func containsEdge(es [][2]int, e [2]int) bool {
	for _, f := range es {
		if f == e {
			return true
		}
	}
	return false
}

// post sends one JSON request and returns the body of a 200 answer.
func (w *mutateServe) post(path string, body any) ([]byte, error) {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	resp, err := w.client.Post(w.http.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// op is one write and one fresh read: POST /v1/mutate, then a refresh of
// the warm session, timed from the write being sent until the refreshed
// answer has arrived.
func (w *mutateServe) op(int) (time.Duration, error) {
	req := w.nextBatch()
	w.batches = append(w.batches, req)
	t := time.Now()
	mb, err := w.post("/v1/mutate", req)
	var rb []byte
	if err == nil {
		rb, err = w.post("/v1/sessions/"+w.sessID+"/refresh", nil)
	}
	d := time.Since(t)
	w.last = rb
	if err != nil {
		return d, err
	}
	var mr server.MutateResponse
	if err := json.Unmarshal(mb, &mr); err != nil {
		return d, err
	}
	if mr.AppliedEdges != batchSize || mr.RemovedEdges != batchSize {
		return d, fmt.Errorf("mutate applied %d edges and removed %d, sent %d and %d", mr.AppliedEdges, mr.RemovedEdges, batchSize, batchSize)
	}
	return d, nil
}

// settle reduces the refresh answer to its signature.
func (w *mutateServe) settle(i int) {
	sig := bodySignature(w.last)
	if sig == 0 && w.last != nil {
		w.invalid[i] = true
	}
	w.sigs = append(w.sigs, sig)
	w.last = nil
}

// bodySignature is the answerSignature of a refresh body; 0 when the op
// failed, the body does not decode or a support is not exact.
func bodySignature(body []byte) uint64 {
	var sr server.SessionResponse
	if body == nil || json.Unmarshal(body, &sr) != nil {
		return 0
	}
	var pats []opat
	var sups []float64
	for _, pw := range sr.Result.Patterns {
		if !pw.Exact {
			return 0
		}
		p := opat{labels: pw.Labels}
		for _, e := range pw.Edges {
			p.edges = append(p.edges, ekey(e[0], e[1]))
		}
		pats = append(pats, p)
		sups = append(sups, pw.Support)
	}
	return answerSignature(pats, sups)
}

// check replays the recorded mutations on the oracle's graph and compares
// the signature of every refreshed session answer with that of the
// oracle's MNI-frequent set.
func (w *mutateServe) check(n int) []error {
	errs := make([]error, n)
	g := lgraphFrom(w.in.labels, w.in.edges)
	// The oracle's answers by edge set: the mutation sequence repeats, so
	// each distinct graph is mined once.
	oracle := map[uint64]uint64{}
	for i, b := range w.batches {
		for _, e := range b.RemoveEdges {
			g.removeEdge(e[0], e[1])
		}
		for _, e := range b.AddEdges {
			g.addEdge(e[0], e[1])
		}
		op := i - 1 // the warm-up op comes first
		if op >= n {
			break
		}
		if op >= 0 && w.invalid[op] {
			errs[op] = fmt.Errorf("refresh answer after op %d does not decode or has an inexact support", op)
			continue
		}
		if w.sigs[i] == 0 && op >= 0 {
			continue // the op itself failed and is counted already
		}
		k := g.edgeSetKey()
		want, ok := oracle[k]
		if !ok {
			want = minedSignature(mineMNI(g, serveMinSup, serveMaxNodes))
			oracle[k] = want
		}
		if want == w.sigs[i] {
			continue
		}
		err := fmt.Errorf("session answer after op %d differs from the oracle's MNI-frequent set", op)
		if op >= 0 {
			errs[op] = err
			continue
		}
		for j := range errs {
			errs[j] = fmt.Errorf("warm-up: %w", err)
		}
	}
	return errs
}

// close shuts the server and the durable engine down, then reopens the
// store directory and requires exactly the model's edge set.
func (w *mutateServe) close() error {
	req, err := http.NewRequest(http.MethodDelete, w.http.URL+"/v1/sessions/"+w.sessID, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	w.http.Close()
	w.srv.Close()
	if cerr := w.eng.Close(); err == nil {
		err = cerr
	}
	if w.rp != nil {
		for _, dc := range w.rp.deltas {
			dc.Close()
		}
		w.rp.inc.Close()
		if cerr := w.rp.db.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	eng, err := support.OpenDurableEngine(w.dir, 0, engineOpts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	snap, _ := eng.Current()
	got := map[[2]int]bool{}
	for i := int32(0); i < int32(snap.NumVertices()); i++ {
		for _, j := range snap.NeighborsAt(i) {
			got[ekey(int(snap.ID(i)), int(snap.ID(j)))] = true
		}
	}
	if err := eng.Close(); err != nil {
		return err
	}
	if len(got) != len(w.model) {
		return fmt.Errorf("reopened store has %d edges, the mutations sent leave %d", len(got), len(w.model))
	}
	for e := range w.model {
		if !got[e] {
			return fmt.Errorf("reopened store lacks edge %v", e)
		}
	}
	return nil
}
