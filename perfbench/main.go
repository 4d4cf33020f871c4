// Command perfbench is the repository's end-to-end benchmark: a
// closed loop that drives the live broadcast stack — server,
// netcast (TCP or the dgram UDP leg), client/protocol and qcache — in
// one process on loopback sockets, checks every read against its own
// copy of the committed database, and prints one JSON result line.
//
//	perfbench --workload paper-fmatrix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reports the per-layer metrics from a traced run plus a replay of its
// inputs through each layer, and writes the spans under
// .bench_build/perfbench/. See perfbench/README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"broadcastcc/internal/cmatrix"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics BENCHMARK.json declares, present and
// non-zero on every workload. The full set is printed in the table
// above the result: the uplink figures exist only on the uplink
// workload, and error_ratio is 0 on a correct run.
var endToEnd = []string{
	"cycle_rate", "commit_rate", "read_txn_p50_ms", "read_txn_p95_ms",
	"commit_visible_p50_ms", "commit_visible_p95_ms", "restart_ratio",
	"air_bytes_per_cycle", "peak_heap_mb", "setup_s",
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The loop is serial: each step waits for the one before. One P
	// keeps the server, tuner and client goroutines on one OS thread, so
	// a hand-off between them never waits for a second vCPU that the
	// host has taken away.
	runtime.GOMAXPROCS(1)
	out := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	h := hostInfo()
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %g trace %d (closed loop, 1 client, %d read-only txns in flight)\n",
		w.name, *seed, *seconds, *trace, w.readTxns)
	budget := time.Duration(*seconds * float64(time.Second))
	var b *bench
	if *trace == 0 {
		b = measure(w, *seed, budget, dir)
	} else {
		b = traced(w, *seed, budget, dir, out)
	}
	b.print()
	res := result{Correct: len(b.fails) == 0, Attempted: b.ops, Failed: b.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	for _, n := range names {
		m, ok := b.metrics[n]
		if !ok {
			b.fails = append(b.fails, "metric "+n+" was not measured")
			res.Correct = false
		}
		res.Metrics[n] = m
	}
	for _, f := range b.fails {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	rj, _ := json.Marshal(struct {
		Host   host              `json:"host"`
		Result result            `json:"result"`
		All    map[string]metric `json:"all_metrics"`
		Fails  []string          `json:"fails"`
	}{h, res, b.metrics, b.fails})
	path := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := os.WriteFile(path, rj, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// bench accumulates one invocation's metrics and failures.
type bench struct {
	metrics map[string]metric
	notes   []string
	ops     int64
	failed  int64
	fails   []string
}

func newBench() *bench { return &bench{metrics: map[string]metric{}} }

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// add folds one repetition's operation and failure counts in.
func (b *bench) add(r repResult) {
	b.ops += r.ops
	b.failed += int64(len(r.fails))
	b.fails = append(b.fails, r.fails...)
}

// same checks that two repetitions with one input seed produced the
// same counts; a difference is a defect of the benchmark.
func (b *bench) same(a, c repResult, what string) {
	if len(a.fails) == 0 && len(c.fails) == 0 && a.counts != c.counts {
		b.fails = append(b.fails, fmt.Sprintf("determinism defect: %s: counts %+v vs %+v", what, a.counts, c.counts))
	}
}

func (b *bench) print() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
}

// measure is the untraced run: a warm-up repetition, then repetitions
// until the budget is spent and the count repetitions are done.
// Repetition r uses input seed r mod countReps, so every count metric
// covers exactly the first countReps repetitions and repeats exactly.
func measure(w *workload, seed uint64, budget time.Duration, dir string) *bench {
	b := newBench()
	warm := runRep(w, seed, 0, dir, nil, nil)
	b.add(warm)
	var reps []repResult
	start := time.Now()
	for i := 0; len(b.fails) == 0 && (i < w.countReps || time.Since(start) < budget); i++ {
		r := runRep(w, seed, i%w.countReps, dir, nil, nil)
		b.add(r)
		reps = append(reps, r)
		if i == 0 {
			b.same(warm, r, "warm-up vs repetition 0")
		} else if i >= w.countReps {
			b.same(reps[i-w.countReps], r, fmt.Sprintf("repetition %d vs %d", i-w.countReps, i))
		}
	}
	if len(reps) == 0 {
		return b
	}
	// Rates, CPU time, the heap peak and the latency percentiles are
	// medians over repetitions, set-up time the median over set-ups.
	var elapsed time.Duration
	var commitRates, cpuMs, peaks, setups []float64
	for _, r := range reps {
		commitRates = append(commitRates, float64(r.commits)/r.loop.Seconds())
		cpuMs = append(cpuMs, float64(r.cpu.Nanoseconds())/1e6/float64(r.cycles))
		peaks = append(peaks, r.peakHeapMB)
		elapsed += r.loop
		setups = append(setups, r.setups...)
	}
	rates := cycleRates(reps)
	var perRep []string
	for _, v := range rates {
		perRep = append(perRep, fmt.Sprintf("%.2f", v))
	}
	var c counts
	var countCycles int64
	for _, r := range reps[:min(len(reps), w.countReps)] {
		c.add(r.counts)
		countCycles += int64(r.cycles)
	}
	b.set("cycle_rate", median(rates), "cycles/s")
	b.set("commit_rate", median(commitRates), "txn/s")
	b.set("cpu_ms_per_cycle", median(cpuMs), "ms")
	b.pct("read_txn", reps, func(r repResult) series { return r.readTxn }, "ms", 0.95)
	b.pct("commit_visible", reps, func(r repResult) series { return r.visible }, "ms", 0.95)
	if w.uplinkTxns > 0 {
		b.pct("uplink_commit", reps, func(r repResult) series { return r.uplinkRTT }, "us", 0.99)
		b.set("uplink_reject_ratio", ratio(c.UplinkRejected, c.UplinkSubmitted), "ratio")
	}
	b.set("restart_ratio", ratio(c.Aborts, c.Attempts), "ratio")
	b.set("error_ratio", ratio(b.failed, b.ops), "ratio")
	b.set("air_bytes_per_cycle", ratio(c.AirBytes, countCycles), "bytes")
	b.set("peak_heap_mb", median(peaks), "MB")
	b.set("setup_s", median(setups), "s")
	b.note("%d measured repetitions of %d cycles in %.2fs, %d set-ups; counts over the first %d: %d read-only attempts, %d aborted",
		len(reps), w.cycles, elapsed.Seconds(), len(setups), w.countReps, c.Attempts, c.Aborts)
	b.note("cycles/s per repetition: %s", strings.Join(perRep, " "))
	return b
}

// pct sets <name>_p50_<unit> and the high percentile: each is taken
// per repetition and reported as the median over repetitions, so a slow
// spell of the host that covers a few repetitions does not set the tail.
// Samples of one cycle are not independent, so the note counts, per
// repetition, the distinct cycles with a sample beyond its high
// percentile; the percentile is valid only with at least ten in every
// repetition.
func (b *bench) pct(name string, reps []repResult, samples func(repResult) series, unit string, hi float64) {
	var p50s, highs, beyond []float64
	n := 0
	for _, r := range reps {
		s := samples(r)
		p := quantile(s.v, hi)
		p50s = append(p50s, median(s.v))
		highs = append(highs, p)
		seen := map[cmatrix.Cycle]bool{}
		for i, v := range s.v {
			if v > p {
				seen[s.cyc[i]] = true
			}
		}
		beyond = append(beyond, float64(len(seen)))
		n += len(s.v)
	}
	b.set(fmt.Sprintf("%s_p50_%s", name, unit), median(p50s), unit)
	b.set(fmt.Sprintf("%s_p%d_%s", name, int(hi*100), unit), median(highs), unit)
	least := slices.Min(beyond)
	valid := "valid"
	if least < 10 {
		valid = "NOT valid (a repetition has fewer than 10 cycles beyond it)"
	}
	b.note("%s: %d samples in %d repetitions; cycles beyond a repetition's p%d: at least %.0f, median %.0f, %s",
		name, n, len(reps), int(hi*100), least, median(beyond), valid)
}

func (c *counts) add(o counts) {
	c.AirBytes += o.AirBytes
	c.Attempts += o.Attempts
	c.Aborts += o.Aborts
	c.UplinkSubmitted += o.UplinkSubmitted
	c.UplinkRejected += o.UplinkRejected
	c.UplinkAborted += o.UplinkAborted
	c.Reads += o.Reads
	c.CacheHits += o.CacheHits
	c.ReadAborts += o.ReadAborts
	c.Packets += o.Packets
	c.RepairPackets += o.RepairPackets
	c.QcacheBytes += o.QcacheBytes
	c.QcacheSegments += o.QcacheSegments
	c.Conflicts += o.Conflicts
	c.FramesRepaired += o.FramesRepaired
	c.FramesLost += o.FramesLost
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runtimeCounters reads the process-wide allocation and CPU totals.
func runtimeCounters() (alloc uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}
