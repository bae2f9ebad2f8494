// Command perfbench is the repository's benchmark. It serves an lsmkv
// engine over loopback TCP the way cmd/lsmserver does by default, drives
// it with a closed loop of two synchronous callers, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output, one JSON object. README.md
// describes the workloads and every metric.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload hot-get --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"lsmkv/internal/client"
)

// setups is how many times a run sets up its tree; setup_s is the
// median, and the last tree is the one measured.
const setups = 3

// warmup is how long the callers run before the timed window opens, so
// the block cache and the server's buffer pools reach their steady state.
const warmup = 2 * time.Second

// nSlices is how many equal slices the timed window is cut into. The
// traced run alternates plain and traced slices, which keeps drift in the
// tree's shape out of the tracing overhead.
const nSlices = 10

func main() {
	name := flag.String("workload", "", "workload to run: hot-get, cold-mget or write-mix")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for the database and the span file")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is what one run measured.
type result struct {
	w       *workload
	seed    int64
	tracing bool

	setupS    []float64
	reads     dist // plain-mode read latency
	sides     dist // plain-mode side-request latency
	rps       [2]float64
	attempted int64
	failed    int64
	firstErr  error
	spaceAmp  float64
	rssMB     float64

	layer     map[string]float64 // per-layer metrics; those from spans in the traced run only
	spansPath string
	orphans   int
}

func run(w *workload, seed int64, window time.Duration, tracing bool, dir string) (*result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dbDir := filepath.Join(dir, fmt.Sprintf("db-%d", os.Getpid()))
	res := &result{w: w, seed: seed, tracing: tracing}
	var e *env
	for k := 0; k < setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			// Each set-up starts from the same heap, so the last one's peak
			// does not rest on how much garbage the earlier ones left.
			debug.FreeOSMemory()
		}
		// Writeback and discards of files written or deleted earlier (by
		// the previous set-up or run) would otherwise land in the middle
		// of this one and slow its fsyncs.
		syscall.Sync()
		start := time.Now()
		var err error
		if e, err = openEnv(dbDir); err != nil {
			return nil, err
		}
		if err := e.load(w); err != nil {
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	syscall.Sync()
	err := res.measure(e, window, filepath.Join(dir, "spans-"+w.name+".tsv"))
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.rssMB = peakRSSMB()
	return res, nil
}

// measure runs the timed window on a settled tree.
func (r *result) measure(e *env, window time.Duration, spansPath string) error {
	w := r.w
	sliceLen := window / nSlices
	addrs := []string{e.srvs[0].addr}
	base := time.Now()
	var rec *recorder
	if r.tracing {
		rec = newRecorder(base, int(window.Seconds()*60_000))
		addr, err := e.serve(&tracedDB{DB: e.db, rec: rec})
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	callers := make([]*caller, 2)
	for id := range callers {
		var cls [2]*client.Client
		for m, addr := range addrs {
			cl, err := client.Dial(addr, nil)
			if err != nil {
				return err
			}
			defer cl.Close()
			cls[m] = cl
		}
		callers[id] = newCaller(w, int64(id), r.seed, cls, base, sliceLen, nSlices, r.tracing)
	}

	debug.FreeOSMemory()
	t0 := time.Now().Add(warmup)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(t0, sliceLen, r.tracing)
		}()
	}
	acc, tables := sampleCounters(e, t0, sliceLen, r.tracing)
	wg.Wait()
	sortedRuns := e.db.TotalRuns()
	r.spaceAmp = mean(tables) / float64(w.loaded()*int64(keyLen+w.valueSize))

	// Each metric is taken per slice and the median over the mode's
	// slices is reported, so a burst of outside interference moves it
	// less than it moves a whole-window figure.
	var rps [2][]float64
	var lat [2][2][][]time.Duration // [mode][kind][slice]
	var reqs, puts, putBytes [2]int64
	var cspans []span
	for s := 0; s < nSlices; s++ {
		m := modePlain
		if r.tracing && s%2 == 1 {
			m = modeTraced
		}
		var n int64
		var ls [2][]time.Duration
		for _, c := range callers {
			n += c.reqs[s]
			puts[m] += c.puts[s]
			putBytes[m] += c.putBytes[s]
			for k := range ls {
				ls[k] = append(ls[k], c.lat[k][s]...)
			}
		}
		reqs[m] += n
		rps[m] = append(rps[m], float64(n)/sliceLen.Seconds())
		for k := range ls {
			lat[m][k] = append(lat[m][k], ls[k])
		}
	}
	for _, c := range callers {
		r.attempted += c.attempted
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		cspans = append(cspans, c.spans...)
	}
	for m := range r.rps {
		if len(rps[m]) > 0 {
			r.rps[m] = median(rps[m])
		}
	}
	r.reads, r.sides = slicedDist(lat[modePlain][kindRead]), slicedDist(lat[modePlain][kindSide])

	// The counters are read in every run; they cover the plain slices.
	a := acc[modePlain]
	st := a.io
	lookups := float64(st.PointLookups + st.RangeLookups)
	r.layer = map[string]float64{
		"server.group_ops":               ratio(float64(puts[modePlain]), float64(st.BatchCommits)),
		"filter.probes_per_lookup":       ratio(float64(st.FilterProbes), float64(st.PointLookups)),
		"filter.negative_ratio":          ratio(float64(st.FilterNegatives), float64(st.FilterProbes)),
		"filter.fp_per_probe":            ratio(float64(st.FilterFalsePositives), float64(st.FilterProbes)),
		"core.runs_probed_per_lookup":    ratio(float64(st.RunsProbed), float64(st.PointLookups)),
		"core.sorted_runs":               float64(sortedRuns),
		"sstable.block_reads_per_lookup": ratio(float64(st.BlockReads), lookups),
		"sstable.bytes_read_per_lookup":  ratio(float64(st.BytesRead), lookups),
		"cache.hit_ratio":                ratio(float64(st.BlockCacheHits), float64(st.BlockCacheHits+st.BlockCacheMisses)),
		"wal.syncs_per_put":              ratio(float64(st.WALSyncs), float64(puts[modePlain])),
		"core.write_amp":                 ratio(float64(st.BytesWritten), float64(putBytes[modePlain])),
		"flush.count":                    float64(st.Flushes),
		"compaction.count":               float64(st.Compactions),
		"compaction.bytes_written_mb":    float64(st.CompactionBytesWritten) / (1 << 20),
		"core.stall_ms":                  float64(st.WriteStallNs) / 1e6,
		"core.slowdown_ms":               float64(st.WriteSlowdownNs) / 1e6,
		"proc.cpu_us_per_req":            ratio(float64(a.cpu.Microseconds()), float64(reqs[modePlain])),
		"proc.alloc_bytes_per_req":       ratio(float64(a.alloc), float64(reqs[modePlain])),
		"proc.gc_cycles":                 float64(a.gcs),
	}
	if !r.tracing {
		return nil
	}
	tr := analyze(cspans, rec)
	r.orphans = tr.orphans
	r.spansPath = spansPath
	if err := tr.write(spansPath); err != nil {
		return err
	}
	readOp, sideOp := opGet, opPut
	if w.mget > 0 {
		readOp = opMultiGet
	}
	if !w.writes() {
		sideOp = opScan
	}
	engRead := distOf(tr.durOf(engGet, engGetAppend, engMultiGet))
	engSide := distOf(tr.durOf(engApply, engScan))
	for name, v := range map[string]float64{
		"client.read_p99_us":  r.reads.p99,
		"client.side_p99_us":  r.sides.p99,
		"server.read_self_us": distOf(tr.selfOf(readOp)).p50,
		"server.side_self_us": distOf(tr.selfOf(sideOp)).p50,
		"engine.read_p50_us":  engRead.p50,
		"engine.side_p50_us":  engSide.p50,
		"engine.side_p99_us":  engSide.p99,
		"trace.overhead_pct":  ratio(r.rps[modePlain]-r.rps[modeTraced], r.rps[modePlain]) * 100,
	} {
		r.layer[name] = v
	}
	return nil
}

// sampleCounters reads the counters and the tree's table bytes when the
// window opens and at every slice boundary. It returns the counter deltas
// summed per mode (odd slices are traced when tracing) and the table
// bytes read at each boundary after the first.
func sampleCounters(e *env, t0 time.Time, sliceLen time.Duration, tracing bool) ([2]counters, []float64) {
	time.Sleep(time.Until(t0))
	prev := readCounters(e.db)
	var acc [2]counters
	var tables []float64
	for s := 0; s < nSlices; s++ {
		time.Sleep(time.Until(t0.Add(time.Duration(s+1) * sliceLen)))
		cur := readCounters(e.db)
		tables = append(tables, float64(e.tableBytes()))
		m := modePlain
		if tracing && s%2 == 1 {
			m = modeTraced
		}
		acc[m] = acc[m].add(cur.sub(prev))
		prev = cur
	}
	return acc, tables
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerUnits gives each per-layer metric its unit; README.md says which
// layer and workload each one belongs to.
var layerUnits = map[string]string{
	"client.read_p99_us": "us", "client.side_p99_us": "us",
	"server.read_self_us": "us", "server.side_self_us": "us", "server.group_ops": "ops",
	"engine.read_p50_us": "us", "engine.side_p50_us": "us", "engine.side_p99_us": "us",
	"filter.probes_per_lookup": "count", "filter.negative_ratio": "ratio", "filter.fp_per_probe": "ratio",
	"core.runs_probed_per_lookup": "count", "core.sorted_runs": "count",
	"sstable.block_reads_per_lookup": "count", "sstable.bytes_read_per_lookup": "bytes",
	"cache.hit_ratio": "ratio", "wal.syncs_per_put": "count", "core.write_amp": "ratio",
	"flush.count": "count", "compaction.count": "count", "compaction.bytes_written_mb": "MB",
	"core.stall_ms": "ms", "core.slowdown_ms": "ms",
	"proc.cpu_us_per_req": "us", "proc.alloc_bytes_per_req": "bytes", "proc.gc_cycles": "count",
	"trace.overhead_pct": "%",
}

// print writes a readable report under the workload's own request names,
// then the result line: one JSON object with the end-to-end metrics, or
// with the per-layer metrics for a traced run.
func (r *result) print(out io.Writer) error {
	w := r.w
	readName, sideName := "get", "put"
	if w.mget > 0 {
		readName = "mget"
	}
	if !w.writes() {
		sideName = "scan"
	}
	setup := median(r.setupS)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v\n", w.name, r.seed, r.tracing)
	fmt.Fprintf(out, "  (each figure is the median over the window's plain slices)\n")
	fmt.Fprintf(out, "  throughput_rps %.1f 1/s\n", r.rps[modePlain])
	for _, x := range []struct {
		name string
		d    dist
	}{{readName, r.reads}, {sideName, r.sides}} {
		fmt.Fprintf(out, "  %s_p50_us %.2f us (n=%d, at least %d per slice)\n", x.name, x.d.p50, x.d.n, x.d.minN)
		fmt.Fprintf(out, "  %s_p99_us %.2f us (at least %d beyond it per slice)\n", x.name, x.d.p99, x.d.minN/100)
	}
	fmt.Fprintf(out, "  error_rate %g (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Fprintf(out, "  space_amp %.4f (mean over slice boundaries)\n", r.spaceAmp)
	fmt.Fprintf(out, "  setup_s %.3f s (median of %.3f)\n", setup, r.setupS)
	fmt.Fprintf(out, "  peak_rss_mb %.1f MB\n", r.rssMB)
	if !r.tracing {
		fmt.Fprintf(out, "  (per-layer counters over the window)\n")
		names := make([]string, 0, len(r.layer))
		for name := range r.layer {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %s %.4f %s\n", name, r.layer[name], layerUnits[name])
		}
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", r.firstErr)
	}
	metrics := map[string]metric{}
	if r.tracing {
		fmt.Fprintf(out, "  traced throughput_rps %.1f 1/s; spans in %s (%d engine spans without a cause)\n",
			r.rps[modeTraced], r.spansPath, r.orphans)
		for name, v := range r.layer {
			metrics[name] = metric{v, layerUnits[name]}
		}
	} else {
		metrics = map[string]metric{
			"throughput_rps": {r.rps[modePlain], "1/s"},
			"read_p50_us":    {r.reads.p50, "us"},
			"side_p50_us":    {r.sides.p50, "us"},
			"space_amp":      {r.spaceAmp, "ratio"},
			"setup_s":        {setup, "s"},
			"peak_rss_mb":    {r.rssMB, "MB"},
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
