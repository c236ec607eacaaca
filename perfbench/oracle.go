package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// The oracle is written apart from the program: plain maps and slices, a
// naive backtracking enumerator with no planner, kernels, shards or
// snapshots, MNI taken straight from its definition, and a brute-force
// permutation isomorphism test. The benchmark checks the program's answers
// against it; oracle_test.go checks it against the paper's figures.

// lgraph is a vertex-labeled undirected graph given by plain edge lists.
type lgraph struct {
	label map[int]int
	adj   map[int][]int
	edge  map[[2]int]bool
}

func newLGraph() *lgraph {
	return &lgraph{label: map[int]int{}, adj: map[int][]int{}, edge: map[[2]int]bool{}}
}

func ekey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (g *lgraph) addVertex(v, l int) { g.label[v] = l }

func (g *lgraph) addEdge(u, v int) {
	if u == v || g.edge[ekey(u, v)] {
		return
	}
	g.edge[ekey(u, v)] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

func (g *lgraph) removeEdge(u, v int) {
	if !g.edge[ekey(u, v)] {
		return
	}
	delete(g.edge, ekey(u, v))
	drop := func(a, b int) {
		ns := g.adj[a]
		for i, w := range ns {
			if w == b {
				g.adj[a] = append(ns[:i:i], ns[i+1:]...)
				return
			}
		}
	}
	drop(u, v)
	drop(v, u)
}

// lgraphFrom builds an oracle graph from vertex labels and an edge list.
func lgraphFrom(labels map[int]int, edges [][2]int) *lgraph {
	g := newLGraph()
	for v, l := range labels {
		g.addVertex(v, l)
	}
	for _, e := range edges {
		g.addEdge(e[0], e[1])
	}
	return g
}

// edgeSetKey hashes the edge set.
func (g *lgraph) edgeSetKey() uint64 {
	es := make([][2]int, 0, len(g.edge))
	for e := range g.edge {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e[0]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e[1]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (g *lgraph) vertices() []int {
	vs := make([]int, 0, len(g.label))
	for v := range g.label {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (g *lgraph) alphabet() []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range g.label {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// opat is a connected pattern over nodes 0..k-1.
type opat struct {
	labels []int
	edges  [][2]int
}

func (p opat) hasEdge(a, b int) bool {
	for _, e := range p.edges {
		if e == ekey(a, b) {
			return true
		}
	}
	return false
}

func (p opat) neighbours(u int) []int {
	var out []int
	for _, e := range p.edges {
		if e[0] == u {
			out = append(out, e[1])
		} else if e[1] == u {
			out = append(out, e[0])
		}
	}
	return out
}

func (p opat) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", p.labels)
	for _, e := range p.edges {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	return b.String()
}

// connected reports whether every node is reachable from node 0.
func (p opat) connected() bool {
	if len(p.labels) == 0 {
		return false
	}
	seen := map[int]bool{0: true}
	stack := []int{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range p.neighbours(u) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(p.labels)
}

// occurrences returns every injective label- and edge-preserving map from
// the pattern's nodes into g; image[i] is the data vertex of node i.
func occurrences(g *lgraph, p opat) [][]int {
	k := len(p.labels)
	// Visit nodes in breadth-first order so that every node after the first
	// has an already-mapped neighbour whose adjacency list bounds its
	// candidates.
	order, anchor := []int{0}, map[int]int{0: -1}
	for i := 0; i < len(order); i++ {
		for _, w := range p.neighbours(order[i]) {
			if _, ok := anchor[w]; !ok {
				anchor[w] = order[i]
				order = append(order, w)
			}
		}
	}
	if len(order) != k {
		return nil
	}
	all := g.vertices()
	image := make([]int, k)
	used := map[int]bool{}
	var out [][]int
	var rec func(d int)
	rec = func(d int) {
		if d == k {
			out = append(out, append([]int(nil), image...))
			return
		}
		u := order[d]
		cands := all
		if a := anchor[u]; a >= 0 {
			cands = g.adj[image[a]]
		}
		for _, v := range cands {
			if used[v] || g.label[v] != p.labels[u] {
				continue
			}
			ok := true
			for _, w := range order[:d] {
				if p.hasEdge(u, w) && !g.edge[ekey(v, image[w])] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			image[u] = v
			used[v] = true
			rec(d + 1)
			delete(used, v)
		}
	}
	rec(0)
	return out
}

// mni is the minimum, over pattern nodes, of the number of distinct data
// vertices the node is mapped to.
func mni(p opat, occs [][]int) int {
	best := -1
	for i := range p.labels {
		seen := map[int]bool{}
		for _, o := range occs {
			seen[o[i]] = true
		}
		if best < 0 || len(seen) < best {
			best = len(seen)
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// instances counts the distinct edge sets the occurrences map onto.
func instances(p opat, occs [][]int) int {
	seen := map[string]bool{}
	for _, o := range occs {
		keys := make([]string, len(p.edges))
		for i, e := range p.edges {
			k := ekey(o[e[0]], o[e[1]])
			keys[i] = fmt.Sprint(k[0], "-", k[1])
		}
		sort.Strings(keys)
		seen[strings.Join(keys, ",")] = true
	}
	return len(seen)
}

// permutations calls f with every permutation of 0..k-1.
func permutations(k int, f func(perm []int) bool) {
	perm := make([]int, k)
	used := make([]bool, k)
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == k {
			return f(perm)
		}
		for v := 0; v < k; v++ {
			if !used[v] {
				used[v], perm[d] = true, v
				if !rec(d + 1) {
					return false
				}
				used[v] = false
			}
		}
		return true
	}
	rec(0)
}

// isomorphic tries every node permutation.
func isomorphic(p, q opat) bool {
	if len(p.labels) != len(q.labels) || len(p.edges) != len(q.edges) {
		return false
	}
	found := false
	permutations(len(p.labels), func(perm []int) bool {
		for i, l := range p.labels {
			if q.labels[perm[i]] != l {
				return true
			}
		}
		for _, e := range p.edges {
			if !q.hasEdge(perm[e[0]], perm[e[1]]) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

// shapeKey is an isomorphism invariant that buckets patterns before the
// brute-force test: sorted node labels and sorted (label, degree) pairs.
func shapeKey(p opat) string {
	deg := make([]int, len(p.labels))
	for _, e := range p.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	parts := make([]string, len(p.labels))
	for i, l := range p.labels {
		parts[i] = fmt.Sprintf("%d/%d", l, deg[i])
	}
	sort.Strings(parts)
	return fmt.Sprintf("%d:%s", len(p.edges), strings.Join(parts, ","))
}

// canonicalForm is the smallest rendering of p over all node orders.
func canonicalForm(p opat) string {
	best := ""
	permutations(len(p.labels), func(perm []int) bool {
		q := opat{labels: make([]int, len(p.labels))}
		for i, l := range p.labels {
			q.labels[perm[i]] = l
		}
		for _, e := range p.edges {
			q.edges = append(q.edges, ekey(perm[e[0]], perm[e[1]]))
		}
		sort.Slice(q.edges, func(i, j int) bool {
			if q.edges[i][0] != q.edges[j][0] {
				return q.edges[i][0] < q.edges[j][0]
			}
			return q.edges[i][1] < q.edges[j][1]
		})
		if s := q.String(); best == "" || s < best {
			best = s
		}
		return true
	})
	return best
}

// answerSignature hashes a set of patterns with their supports, up to
// isomorphism and order.
func answerSignature(pats []opat, supports []float64) uint64 {
	parts := make([]string, len(pats))
	for i, p := range pats {
		parts[i] = fmt.Sprintf("%s=%v", canonicalForm(p), supports[i])
	}
	sort.Strings(parts)
	h := fnv.New64a()
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64() | 1
}

// patternSet holds patterns up to isomorphism.
type patternSet struct {
	buckets map[string][]int
	pats    []opat
}

func newPatternSet() *patternSet { return &patternSet{buckets: map[string][]int{}} }

// find returns the index of a pattern isomorphic to p, or -1.
func (s *patternSet) find(p opat) int {
	for _, i := range s.buckets[shapeKey(p)] {
		if isomorphic(p, s.pats[i]) {
			return i
		}
	}
	return -1
}

// add inserts p unless an isomorphic pattern is present; it returns the
// index of p's class and whether p was new.
func (s *patternSet) add(p opat) (int, bool) {
	if i := s.find(p); i >= 0 {
		return i, false
	}
	s.pats = append(s.pats, p)
	k := shapeKey(p)
	s.buckets[k] = append(s.buckets[k], len(s.pats)-1)
	return len(s.pats) - 1, true
}

// extensions returns the one-edge extensions of p: an edge between two
// non-adjacent nodes, or a new node with any alphabet label attached to an
// existing node, within maxNodes nodes.
func extensions(p opat, alphabet []int, maxNodes int) []opat {
	var out []opat
	k := len(p.labels)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if !p.hasEdge(a, b) {
				out = append(out, opat{labels: p.labels, edges: append(append([][2]int(nil), p.edges...), [2]int{a, b})})
			}
		}
	}
	if k < maxNodes {
		for a := 0; a < k; a++ {
			for _, l := range alphabet {
				out = append(out, opat{
					labels: append(append([]int(nil), p.labels...), l),
					edges:  append(append([][2]int(nil), p.edges...), [2]int{a, k}),
				})
			}
		}
	}
	return out
}

// minedPattern is one frequent pattern with its MNI support.
type minedPattern struct {
	p       opat
	support int
}

// mineMNI is the oracle miner: level-wise growth from the single edges that
// occur in g, one edge at a time, keeping the patterns whose MNI reaches
// minsup. MNI is anti-monotone, so growing only frequent patterns finds
// every frequent one.
func mineMNI(g *lgraph, minsup, maxNodes int) []minedPattern {
	seen := newPatternSet()
	var level []opat
	for e := range g.edge {
		p := opat{labels: []int{g.label[e[0]], g.label[e[1]]}, edges: [][2]int{{0, 1}}}
		if _, fresh := seen.add(p); fresh {
			level = append(level, p)
		}
	}
	alphabet := g.alphabet()
	var out []minedPattern
	for len(level) > 0 {
		var next []opat
		for _, p := range level {
			s := mni(p, occurrences(g, p))
			if s < minsup {
				continue
			}
			out = append(out, minedPattern{p: p, support: s})
			for _, q := range extensions(p, alphabet, maxNodes) {
				if _, fresh := seen.add(q); fresh {
					next = append(next, q)
				}
			}
		}
		level = next
	}
	return out
}
