package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/server"
)

// The traced run must exercise the same server code paths as the timed
// run, so the shim has to satisfy every optional interface the server
// type-asserts on the engine that *lsmkv.DB satisfies.
func TestShimParity(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeOf((*server.Engine)(nil)).Elem(),
		reflect.TypeOf((*server.ShardedEngine)(nil)).Elem(),
		reflect.TypeOf((*server.SeqEngine)(nil)).Elem(),
		reflect.TypeOf((*server.AppendGetter)(nil)).Elem(),
		reflect.TypeOf((*server.MultiGetter)(nil)).Elem(),
		reflect.TypeOf((*server.CheckpointEngine)(nil)).Elem(),
		reflect.TypeOf((*server.MerkleEngine)(nil)).Elem(),
		reflect.TypeOf((*server.TunerEngine)(nil)).Elem(),
	}
	db := reflect.TypeOf((*lsmkv.DB)(nil))
	shim := reflect.TypeOf((*tracedDB)(nil))
	for _, it := range ifaces {
		if !db.Implements(it) {
			t.Errorf("*lsmkv.DB no longer implements server.%s", it.Name())
			continue
		}
		if !shim.Implements(it) {
			t.Errorf("the tracing shim does not implement server.%s", it.Name())
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	w := &workload{valueSize: 100}
	c := &caller{w: w}
	v := appendValue([]byte("prefix"), 4242, 7, w.valueSize)[len("prefix"):]
	if i, ok := keyIndex(v[:keyLen]); !ok || i != 4242 {
		t.Fatalf("value does not start with its key: %q", v[:keyLen])
	}
	if !c.valueOK(v, 4242, 7) || !c.valueOK(v, 4242, -1) {
		t.Fatal("a value fails its own check")
	}
	if c.valueOK(v, 4242, 8) || c.valueOK(v, 4243, -1) {
		t.Fatal("a value passes for the wrong version or key")
	}
	bad := bytes.Clone(v)
	bad[len(bad)-1]++
	if c.valueOK(bad, 4242, 7) {
		t.Fatal("a corrupted value passes")
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics a run
// prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok || w.why != sw.Why {
			t.Errorf("workload %q: BENCHMARK.json and workload.go disagree", sw.Name)
		}
	}
	r := &result{w: &workloads[0], setupS: []float64{1}}
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatal(err)
	}
	got := lastMetrics(t, out.Bytes())
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("a run prints %d end-to-end metrics, BENCHMARK.json names %d", len(got), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: printed unit %q, BENCHMARK.json %q", m.Name, got[m.Name], m.Unit)
		}
	}
	if len(layerUnits) != len(spec.PerLayer) {
		t.Errorf("a traced run has %d per-layer metrics, BENCHMARK.json names %d", len(layerUnits), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q, BENCHMARK.json %q", m.Name, layerUnits[m.Name], m.Unit)
		}
	}
}

func lastMetrics(t *testing.T, out []byte) map[string]string {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Metrics map[string]metric
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	units := map[string]string{}
	for name, m := range res.Metrics {
		units[name] = m.Unit
	}
	return units
}

// TestPlainRun runs a short untraced run: every answer checks out, the
// counter-based per-layer figures are printed on the report lines, and the
// result line carries the end-to-end metrics.
func TestPlainRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for several seconds")
	}
	w := &workload{name: "small-write", span: 10_000, stride: 1, valueSize: 1000, readPct: 50}
	res, err := run(w, 7, time.Second, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d requests failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal.syncs_per_put", "core.write_amp", "cache.hit_ratio"} {
		if !bytes.Contains(out.Bytes(), []byte("\n  "+name+" ")) {
			t.Errorf("report lines lack %s:\n%s", name, out.Bytes())
		}
	}
	got := lastMetrics(t, out.Bytes())
	for _, name := range []string{"throughput_rps", "read_p50_us", "side_p50_us"} {
		if got[name] == "" {
			t.Errorf("result line lacks %s", name)
		}
	}
}

// TestTracedRun runs small versions of both request shapes through the
// traced run and checks the answers, the per-layer metrics and the span
// file.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for several seconds")
	}
	for _, w := range []*workload{
		{name: "small-mget", span: 20_000, stride: 2, valueSize: 100, readPct: 90, mget: 32, scan: 16},
		{name: "small-write", span: 10_000, stride: 1, valueSize: 1000, readPct: 50},
	} {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := run(w, 7, 2*time.Second, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d requests failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			for name := range layerUnits {
				if _, ok := res.layer[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			if got := lastMetrics(t, out.Bytes()); len(got) != len(layerUnits) {
				t.Errorf("traced result prints %d metrics, want %d", len(got), len(layerUnits))
			}
			checkSpans(t, res.spansPath, w)
		})
	}
}

// checkSpans parses a span file and checks that every self time is
// non-negative and no longer than its span, that causes name client spans,
// and that both layers and the workload's engine calls appear.
func checkSpans(t *testing.T, path string, w *workload) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]int{}
	names := map[string]int{}
	clients := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 8 {
			t.Fatalf("span line has %d fields: %q", len(fields), line)
		}
		id, _ := strconv.Atoi(fields[0])
		start, err1 := strconv.ParseInt(fields[3], 10, 64)
		end, err2 := strconv.ParseInt(fields[4], 10, 64)
		self, err3 := strconv.ParseInt(fields[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || id == 0 {
			t.Fatalf("unparsable span line %q", line)
		}
		if end < start || self < 0 || self > end-start {
			t.Fatalf("span %d: start %d end %d self %d", id, start, end, self)
		}
		layers[fields[1]]++
		names[fields[2]]++
		if fields[1] == "client" {
			clients++
			continue
		}
		if fields[6] == "-" {
			continue
		}
		for _, p := range strings.Split(fields[6], ",") {
			if pid, err := strconv.Atoi(p); err != nil || pid < 1 || pid > clients {
				t.Fatalf("span %d names cause %q, not a client span", id, p)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"GetAppend", "ApplyBatch"}
	if w.mget > 0 {
		want = []string{"MultiGet", "Scan"}
	}
	for _, name := range append(want, "client", "engine") {
		if names[name]+layers[name] == 0 {
			t.Errorf("no %s spans in %s", name, path)
		}
	}
}
