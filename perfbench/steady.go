package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs the workload n times in fresh processes with seeds 1..n and
// prints, per metric, the median, the quartiles, the interquartile range as
// a share of the median next to the metric's bound, and the max/min ratio.
// The quartiles are those of Python's statistics.quantiles(values, n=4).
func steady(root, name string, n, seconds, traced int) error {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var failedShares []float64
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "-root", root, "-workload", name, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		// A run whose checks failed exits 1 after printing its result; only
		// a run without a result line stops the mode.
		out, err := cmd.Output()
		var res result
		if jerr := json.Unmarshal(lastLine(out), &res); jerr != nil || res.Attempted == 0 {
			if err == nil {
				err = fmt.Errorf("no result line: %v", jerr)
			}
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
		failedShares = append(failedShares, float64(res.Failed)/float64(res.Attempted))
		fmt.Fprintf(os.Stderr, "seed %d done: attempted %d failed %d\n", seed, res.Attempted, res.Failed)
	}
	fmt.Printf("%-24s %12s %12s %12s %8s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "bound", "max/min")
	for _, e := range bf.EndToEnd {
		vs := values[e.Name]
		if len(vs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(vs)
		lo, hi := minMax(vs)
		spread := (q3 - q1) / q2
		flag := ""
		if spread > e.Bound/3 {
			flag = "  above bound/3"
		}
		fmt.Printf("%-24s %12.4f %12.4f %12.4f %8.3f %8.3f %8.3f%s\n", e.Name, q2, q1, q3, spread, e.Bound, hi/lo, flag)
	}
	fmt.Printf("failed share per run: %v\n", failedShares)
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles ports statistics.quantiles(data, n=4) with its default
// 'exclusive' method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
