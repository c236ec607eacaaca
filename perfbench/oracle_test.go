package main

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// TestOracleMatchesPaperFigures checks the naive enumerator, the instance
// count and MNI against the values the paper states for its figures.
func TestOracleMatchesPaperFigures(t *testing.T) {
	for _, f := range dataset.AllFigures() {
		g, p := oracleGraph(f.Graph), oraclePattern(f.Pattern)
		occs := occurrences(g, p)
		if f.ExpectedOccurrences >= 0 && len(occs) != f.ExpectedOccurrences {
			t.Errorf("%s: %d occurrences, paper states %d", f.Name, len(occs), f.ExpectedOccurrences)
		}
		if f.ExpectedInstances >= 0 && instances(p, occs) != f.ExpectedInstances {
			t.Errorf("%s: %d instances, paper states %d", f.Name, instances(p, occs), f.ExpectedInstances)
		}
		if f.ExpectedMNI >= 0 && float64(mni(p, occs)) != f.ExpectedMNI {
			t.Errorf("%s: MNI %d, paper states %v", f.Name, mni(p, occs), f.ExpectedMNI)
		}
	}
}

// TestIsomorphicUnderRelabelling checks the brute-force isomorphism test and
// the canonical form on every node permutation of a 4-node pattern, and
// that changing one label or one edge breaks both.
func TestIsomorphicUnderRelabelling(t *testing.T) {
	p := opat{labels: []int{1, 2, 1, 3}, edges: [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}}}
	permutations(4, func(perm []int) bool {
		q := opat{labels: make([]int, 4)}
		for i, l := range p.labels {
			q.labels[perm[i]] = l
		}
		for _, e := range p.edges {
			q.edges = append(q.edges, ekey(perm[e[0]], perm[e[1]]))
		}
		if !isomorphic(p, q) || canonicalForm(p) != canonicalForm(q) {
			t.Errorf("permutation %v of %v not isomorphic or not the same canonical form", perm, p)
		}
		return true
	})
	relabelled := opat{labels: []int{1, 2, 2, 3}, edges: p.edges}
	rewired := opat{labels: p.labels, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}}
	for _, q := range []opat{relabelled, rewired} {
		if isomorphic(p, q) || canonicalForm(p) == canonicalForm(q) {
			t.Errorf("%v reported isomorphic to %v", q, p)
		}
	}
}

// TestMineMNIIsClosed checks the oracle miner on a figure graph: every
// reported support is the pattern's MNI, and every connected subpattern of a
// frequent pattern is frequent too.
func TestMineMNIIsClosed(t *testing.T) {
	for _, f := range dataset.AllFigures() {
		g := oracleGraph(f.Graph)
		mined := mineMNI(g, 1, 4)
		set := newPatternSet()
		for _, m := range mined {
			if got := mni(m.p, occurrences(g, m.p)); got != m.support {
				t.Errorf("%s: %v support %d, MNI %d", f.Name, m.p, m.support, got)
			}
			set.add(m.p)
		}
		for _, m := range mined {
			for _, s := range subpatterns(m.p) {
				if set.find(s) < 0 {
					t.Errorf("%s: subpattern %v of frequent %v missing", f.Name, s, m.p)
				}
			}
		}
	}
}

// oracleGraph copies a program graph into the oracle's representation.
func oracleGraph(g *graph.Graph) *lgraph {
	out := newLGraph()
	for _, v := range g.Vertices() {
		out.addVertex(int(v), int(g.MustLabelOf(v)))
	}
	for _, e := range g.Edges() {
		out.addEdge(int(e.U), int(e.V))
	}
	return out
}

// subpatterns returns the connected patterns with one edge fewer: the edge
// is dropped, and so is a node the drop leaves isolated.
func subpatterns(p opat) []opat {
	var out []opat
	for i := range p.edges {
		rest := make([][2]int, 0, len(p.edges)-1)
		rest = append(rest, p.edges[:i]...)
		rest = append(rest, p.edges[i+1:]...)
		deg := make([]int, len(p.labels))
		for _, e := range rest {
			deg[e[0]]++
			deg[e[1]]++
		}
		keep := []int{}
		for n := range p.labels {
			if deg[n] > 0 {
				keep = append(keep, n)
			}
		}
		if len(keep) == 0 {
			continue
		}
		idx := map[int]int{}
		q := opat{}
		for j, n := range keep {
			idx[n] = j
			q.labels = append(q.labels, p.labels[n])
		}
		for _, e := range rest {
			q.edges = append(q.edges, ekey(idx[e[0]], idx[e[1]]))
		}
		if q.connected() {
			out = append(out, q)
		}
	}
	return out
}
