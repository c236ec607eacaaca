// Command perfbench is the repository's benchmark. It runs one workload
// through the program's public surface for a fixed time, checks every answer
// against an oracle written apart from the program, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload mine-cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// replays each operation as the layer calls the engine makes, timing each
// call, and prints the per-layer metrics. --steady N runs the workload N
// times in fresh processes, seeds 1..N, and prints each end-to-end metric's
// quartiles against its bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload, set up from generated inputs.
type workload interface {
	// setup does the program-side work before timing starts, warm-up
	// operation included.
	setup() error
	// op runs operation i and returns its latency. An error fails the
	// operation.
	op(i int) (time.Duration, error)
	// settle does the client's bookkeeping for op i's answer once the
	// clock has stopped: comparing it or reducing it to what check needs,
	// so that answers are not kept alive across the run.
	settle(i int)
	// check verifies the answers of the operations run so far against the
	// oracle and returns, per operation, the first failed check.
	check(n int) []error
	// close releases what setup acquired and checks what can only be
	// checked after shutdown.
	close() error
}

// spec describes a workload: its inputs, how to build it and how many
// operations make one round.
type spec struct {
	round int
	make  func(seed uint64, scratch string) workload
}

var workloads = map[string]spec{
	"mine-cold":      {round: 1, make: newMineCold},
	"measures-store": {round: 1, make: newMeasuresStore},
	"mutate-serve":   {round: mutationCycle, make: newMutateServe},
}

// A run sets the workload up at least setupRepeats times and for at least
// setupSpan, and setup_s is the median. The set-ups that write a store are
// dominated by fsync, whose latency on a shared disk swings several-fold
// between spells of a few seconds; spreading the set-ups over a few seconds
// keeps the median from resting on a single moment.
const (
	setupRepeats = 9
	setupSpan    = 3 * time.Second
)

// procs is the benchmark's GOMAXPROCS. The engine runs sequentially
// (Parallelism 1, one miner worker) and the client is a closed loop, so a
// second P would only run the garbage collector beside the op; on a 2-vCPU
// host shared with other machines that made op latency swing by 20% between
// runs, against 5% on one P.
const procs = 1

// minOps makes the 90th percentile have at least ten samples beyond it.
const minOps = 100

// hardLimit caps the timed phase whatever the operation latency.
const hardLimit = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root    = flag.String("root", ".", "repository checkout the benchmark runs in; scratch files go under its .bench_build")
		name    = flag.String("workload", "", "workload: mine-cold, measures-store or mutate-serve")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		steadyN = flag.Int("steady", 0, "run the workload this many times in fresh processes and print the spread of each end-to-end metric")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	sp, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *steadyN > 0 {
		if err := steady(*root, *name, *steadyN, *seconds, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	if *traced == 1 {
		out := filepath.Join(*root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		res, err = runTraced(*name, *seed, time.Duration(*seconds)*time.Second, scratch, out)
	} else {
		res, err = run(sp, *seed, time.Duration(*seconds)*time.Second, scratch)
	}
	if rerr := os.RemoveAll(scratch); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up (see setUp), runs whole rounds of
// operations for at least d, checks every answer and reports the end-to-end
// metrics.
func run(sp spec, seed uint64, d time.Duration, scratch string) (*result, error) {
	w, setups, err := setUp(sp, seed, scratch)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d set-ups, median %.4f s\n", len(setups), median(setups))
	lat, opErrs, phase, usage := timedPhase(w, sp.round, d)
	n := len(lat)
	checkErrs := w.check(n)
	closeErr := w.close()

	failed := 0
	for i := 0; i < n; i++ {
		if err := firstErr(opErrs[i], checkErrs[i]); err != nil {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", i, err)
			}
			failed++
		}
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "after shutdown:", closeErr)
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res := &result{
		Correct:   failed == 0 && closeErr == nil,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"op_ms_p50":       {ms(quantile(sorted, 0.5)), "ms"},
			"op_ms_p90":       {ms(quantile(sorted, 0.9)), "ms"},
			"ops_per_s":       {float64(n) / phase.Seconds(), "1/s"},
			"cpu_ms_per_op":   {usage.cpu.Seconds() * 1e3 / float64(n), "ms"},
			"allocs_per_op":   {float64(usage.mallocs) / float64(n), "count"},
			"alloc_mb_per_op": {float64(usage.bytes) / 1e6 / float64(n), "MB"},
			"rss_mb_p90":      {usage.rssP90, "MB"},
		},
	}
	return res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the workload at least setupRepeats times and for at least
// setupSpan, keeping the last one, and returns the set-up times in seconds.
func setUp(sp spec, seed uint64, scratch string) (workload, []float64, error) {
	var setups []float64
	var w workload
	start := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		w = sp.make(seed, dir)
		runtime.GC()
		t := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if i+1 >= setupRepeats && time.Since(start) >= setupSpan {
			return w, setups, nil
		}
		if err := w.close(); err != nil {
			return nil, nil, fmt.Errorf("setup: close: %w", err)
		}
	}
}

// usage is the process-wide cost of the timed phase. rssP90 is the 90th
// percentile of the resident set sampled after every op: the high-water
// mark (ru_maxrss) catches single mid-op garbage-collector overshoots and
// swung from 15 to 28 MB between processes on identical measures-store
// input, while this percentile stayed within 3%.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
	rssP90         float64
}

// timedPhase runs whole rounds of operations, closed loop, until d has
// passed and at least minOps operations are done. After each op the
// workload settles its answer (the client's own bookkeeping and checks);
// that time, CPU and allocation is subtracted from the phase, so the usage
// counts only the program and the client's requests.
func timedPhase(w workload, round int, d time.Duration) ([]time.Duration, []error, time.Duration, usage) {
	var lat []time.Duration
	var errs []error
	var rss []float64
	var excluded counters
	runtime.GC()
	start := readCounters()
	for i := 0; ; i++ {
		if i%round == 0 {
			el := time.Since(start.wall) - excluded.since
			if (el >= d && i >= minOps) || el >= hardLimit {
				break
			}
		}
		l, err := w.op(i)
		s0 := readCounters()
		lat = append(lat, l)
		errs = append(errs, err)
		rss = append(rss, rssMB())
		w.settle(i)
		excluded.add(s0, readCounters())
	}
	end := readCounters()
	var total counters
	total.add(start, end)
	sort.Float64s(rss)
	return lat, errs, total.since - excluded.since, usage{
		cpu:     total.cpu - excluded.cpu,
		mallocs: total.mallocs - excluded.mallocs,
		bytes:   total.bytes - excluded.bytes,
		rssP90:  rss[len(rss)*9/10],
	}
}

// counterSample is a reading of the process's clocks and allocation
// counters.
type counterSample struct {
	wall           time.Time
	cpu            time.Duration
	mallocs, bytes uint64
}

var allocMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// readCounters samples without stopping the world (runtime/metrics, unlike
// runtime.ReadMemStats) and without allocating.
func readCounters() counterSample {
	metrics.Read(allocMetrics)
	return counterSample{wall: time.Now(), cpu: cpuTime(), mallocs: allocMetrics[0].Value.Uint64(), bytes: allocMetrics[1].Value.Uint64()}
}

// counters accumulates differences of samples.
type counters struct {
	since          time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
}

func (c *counters) add(a, b counterSample) {
	c.since += b.wall.Sub(a.wall)
	c.cpu += b.cpu - a.cpu
	c.mallocs += b.mallocs - a.mallocs
	c.bytes += b.bytes - a.bytes
}

var statm, _ = os.Open("/proc/self/statm")
var statmBuf [128]byte

// rssMB reads the current resident set from /proc/self/statm without
// allocating, so that sampling it does not count in allocs_per_op.
func rssMB() float64 {
	if statm == nil {
		return 0
	}
	n, err := statm.ReadAt(statmBuf[:], 0)
	if n == 0 && err != nil {
		return 0
	}
	f := statmBuf[:n]
	i := 0
	for i < len(f) && f[i] != ' ' {
		i++
	}
	pages := 0
	for i++; i < len(f) && f[i] >= '0' && f[i] <= '9'; i++ {
		pages = pages*10 + int(f[i]-'0')
	}
	return float64(pages*os.Getpagesize()) / 1e6
}

// cpuTime is the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
