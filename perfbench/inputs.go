package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// rng is splitmix64: the benchmark draws its inputs from its own generator so
// that they depend on the seed alone, never on the program's generators.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// input is one generated data graph: vertex labels and an edge list, plus
// the renumbering the seed chose (ids: base vertex -> vertex in the input;
// rename: base label -> label in the input) and the edges in base numbering,
// in the order the generator drew them.
type input struct {
	labels map[int]int
	edges  [][2]int
	ids    []int
	rename map[int]int
	base   [][2]int
}

// barabasiAlbert builds the graph shape: a Barabási–Albert preferential
// attachment graph on n vertices, m edges per new vertex, k uniform labels,
// drawn from the fixed shapeSeed. The run seed then renumbers the vertices
// and renames the labels. Every seed therefore gets an isomorphic graph and
// does the same work, while the vertex numbering (and with it shard
// placement, search order and tie-breaking) and the label names vary.
func barabasiAlbert(n, m, k int, shapeSeed, seed uint64) input {
	shape := &rng{s: shapeSeed}
	var edges [][2]int
	var ends []int // every edge endpoint once: degree-proportional sampling
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, [2]int{u, v})
			ends = append(ends, u, v)
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			chosen[ends[shape.intn(len(ends))]] = true
		}
		targets := make([]int, 0, m)
		for u := range chosen {
			targets = append(targets, u)
		}
		sort.Ints(targets)
		for _, u := range targets {
			edges = append(edges, [2]int{u, v})
			ends = append(ends, u, v)
		}
	}
	base := make([]int, n)
	for v := range base {
		base[v] = 1 + shape.intn(k)
	}

	r := &rng{s: seed}
	ids := r.perm(n)
	names := r.perm(k)
	in := input{labels: map[int]int{}, ids: ids, rename: map[int]int{}, base: edges}
	for l := 1; l <= k; l++ {
		in.rename[l] = 1 + names[l-1]
	}
	for v, l := range base {
		in.labels[ids[v]] = in.rename[l]
	}
	for _, e := range edges {
		in.edges = append(in.edges, ekey(ids[e[0]], ids[e[1]]))
	}
	sort.Slice(in.edges, func(i, j int) bool {
		if in.edges[i][0] != in.edges[j][0] {
			return in.edges[i][0] < in.edges[j][0]
		}
		return in.edges[i][1] < in.edges[j][1]
	})
	return in
}

// lg renders the input in the .lg text format the program parses.
func (in input) lg(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t # %s\n", name)
	ids := make([]int, 0, len(in.labels))
	for v := range in.labels {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	for _, v := range ids {
		fmt.Fprintf(&b, "v %d %d\n", v, in.labels[v])
	}
	for _, e := range in.edges {
		fmt.Fprintf(&b, "e %d %d\n", e[0], e[1])
	}
	return b.String()
}

// oraclePattern copies a program pattern into the oracle's representation,
// numbering nodes in the pattern's node order.
func oraclePattern(p *pattern.Pattern) opat {
	idx := map[graph.VertexID]int{}
	var out opat
	for i, n := range p.Nodes() {
		idx[n] = i
		out.labels = append(out.labels, int(p.LabelOf(n)))
	}
	for _, e := range p.Edges() {
		out.edges = append(out.edges, ekey(idx[e.U], idx[e.V]))
	}
	return out
}

// programPattern builds the program's pattern for an oracle pattern.
func programPattern(p opat) (*pattern.Pattern, error) {
	b := graph.NewBuilder("pattern")
	for i, l := range p.labels {
		b.Vertex(graph.VertexID(i), graph.Label(l))
	}
	for _, e := range p.edges {
		b.Edge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return pattern.New(g)
}
