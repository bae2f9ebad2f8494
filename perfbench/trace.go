package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"lsmkv"
)

// spanOp names what a span timed. Client spans time one request as its
// caller saw it; engine spans time one call the server made into the
// engine.
type spanOp uint8

const (
	opGet spanOp = iota
	opMultiGet
	opScan
	opPut
	engGet
	engGetAppend
	engMultiGet
	engScan
	engApply
)

var opNames = [...]string{
	opGet: "get", opMultiGet: "multiget", opScan: "scanstream", opPut: "put",
	engGet: "Get", engGetAppend: "GetAppend", engMultiGet: "MultiGet", engScan: "Scan", engApply: "ApplyBatch",
}

// cause is the client request kind an engine span serves.
func (o spanOp) cause() spanOp {
	switch o {
	case engGet, engGetAppend:
		return opGet
	case engMultiGet:
		return opMultiGet
	case engScan:
		return opScan
	default:
		return opPut
	}
}

// span is one timed interval. key identifies what it touched: the key
// index of a GET or PUT, the first key of a MULTIGET, the low bound of a
// scan. An apply span covers several keys: keys[first:first+n] of its
// recorder.
type span struct {
	op         spanOp
	key        int64
	start, end time.Duration // since the run's span clock origin
	first, n   int32
}

// tracedDB is the traced run's engine. It embeds *lsmkv.DB, so every
// optional interface the server looks for still resolves to the same
// engine code, and it records a span around each read and apply call.
type tracedDB struct {
	*lsmkv.DB
	rec *recorder
}

// recorder keeps engine spans in memory; the server calls the engine
// from many goroutines, so appends are serialized.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	keys  []int64 // apply spans' key indexes
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity), keys: make([]int64, 0, capacity)}
}

func (r *recorder) add(op spanOp, key []byte, start time.Time) {
	end := time.Since(r.base)
	i, _ := keyIndex(key)
	r.mu.Lock()
	r.spans = append(r.spans, span{op: op, key: i, start: start.Sub(r.base), end: end})
	r.mu.Unlock()
}

func (t *tracedDB) Get(key []byte) ([]byte, error) {
	start := time.Now()
	v, err := t.DB.Get(key)
	t.rec.add(engGet, key, start)
	return v, err
}

func (t *tracedDB) GetAppend(key, dst []byte) ([]byte, error) {
	start := time.Now()
	v, err := t.DB.GetAppend(key, dst)
	t.rec.add(engGetAppend, key, start)
	return v, err
}

func (t *tracedDB) MultiGet(keys [][]byte) ([][]byte, error) {
	start := time.Now()
	vals, err := t.DB.MultiGet(keys)
	var first []byte
	if len(keys) > 0 {
		first = keys[0]
	}
	t.rec.add(engMultiGet, first, start)
	return vals, err
}

func (t *tracedDB) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	start := time.Now()
	err := t.DB.Scan(lo, hi, fn)
	t.rec.add(engScan, lo, start)
	return err
}

func (t *tracedDB) ApplyBatch(ops []lsmkv.BatchOp, sync bool) error {
	start := time.Now()
	err := t.DB.ApplyBatch(ops, sync)
	t.rec.addApply(ops, start)
	return err
}

func (t *tracedDB) ApplyShardBatch(i int, ops []lsmkv.BatchOp, sync bool) error {
	start := time.Now()
	err := t.DB.ApplyShardBatch(i, ops, sync)
	t.rec.addApply(ops, start)
	return err
}

func (r *recorder) addApply(ops []lsmkv.BatchOp, start time.Time) {
	end := time.Since(r.base)
	r.mu.Lock()
	first := len(r.keys)
	for _, op := range ops {
		i, _ := keyIndex(op.Key)
		r.keys = append(r.keys, i)
	}
	r.spans = append(r.spans, span{op: engApply, start: start.Sub(r.base), end: end, first: int32(first), n: int32(len(ops))})
	r.mu.Unlock()
}

// traceResult is the traced run's span analysis.
type traceResult struct {
	client, engine []span
	keys           []int64
	// parents[parentOff[j]:parentOff[j+1]] are the indexes into client of
	// engine span j's causes.
	parents, parentOff []int32
	// self[i] is client span i's duration minus the time its engine child
	// spans cover.
	self    []time.Duration
	orphans int
}

// analyze links each engine span to its causes and computes each client
// span's self time. A read's cause is the client request of the same
// kind and key whose interval contains it; when two callers read the
// same key at once, the one that started last is taken. An apply's
// causes are, for each key it wrote, the client PUT of that key whose
// interval contains the apply: the commit group.
func analyze(client []span, rec *recorder) *traceResult {
	res := &traceResult{client: client, engine: rec.spans, keys: rec.keys}
	// Client spans ordered by kind, key and start, so the candidates for
	// an engine span are one run of this index.
	order := make([]int32, len(client))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := client[a], client[b]
		return cmp.Or(cmp.Compare(ca.op, cb.op), cmp.Compare(ca.key, cb.key), cmp.Compare(ca.start, cb.start))
	})
	find := func(op spanOp, key int64, e span) int32 {
		// The last candidate starting at or before e does, stepping back
		// to the first whose interval contains e.
		j := sort.Search(len(order), func(x int) bool {
			c := client[order[x]]
			return cmp.Or(cmp.Compare(c.op, op), cmp.Compare(c.key, key), cmp.Compare(c.start, e.start)) > 0
		}) - 1
		for ; j >= 0; j-- {
			c := client[order[j]]
			if c.op != op || c.key != key {
				break
			}
			if c.end >= e.end {
				return order[j]
			}
		}
		return -1
	}
	// A request makes one engine call, so a client span's children never
	// overlap and their durations add up to the time they cover.
	res.self = make([]time.Duration, len(client))
	for i, c := range client {
		res.self[i] = c.end - c.start
	}
	res.parentOff = make([]int32, 0, len(rec.spans)+1)
	for _, e := range rec.spans {
		res.parentOff = append(res.parentOff, int32(len(res.parents)))
		n := len(res.parents)
		if e.op == engApply {
			for _, key := range rec.keys[e.first : e.first+e.n] {
				if p := find(opPut, key, e); p >= 0 {
					res.parents = append(res.parents, p)
				}
			}
		} else if p := find(e.op.cause(), e.key, e); p >= 0 {
			res.parents = append(res.parents, p)
		}
		if len(res.parents) == n {
			res.orphans++
		}
		for _, p := range res.parents[n:] {
			res.self[p] -= e.end - e.start
		}
	}
	res.parentOff = append(res.parentOff, int32(len(res.parents)))
	return res
}

// selfOf collects the self times of client spans of the given ops.
func (r *traceResult) selfOf(ops ...spanOp) []time.Duration {
	var out []time.Duration
	for i, c := range r.client {
		if slices.Contains(ops, c.op) {
			out = append(out, r.self[i])
		}
	}
	return out
}

// durOf collects the durations of engine spans of the given ops.
func (r *traceResult) durOf(ops ...spanOp) []time.Duration {
	var out []time.Duration
	for _, e := range r.engine {
		if slices.Contains(ops, e.op) {
			out = append(out, e.end-e.start)
		}
	}
	return out
}

// write stores every span as one tab-separated line:
//
//	id  layer  name  start_ns  end_ns  self_ns  parents  keys
//
// Client spans are numbered from 1 and engine spans follow them. parents
// lists the ids of an engine span's client causes ("-" for none); self_ns
// is a client span's self time and an engine span's whole duration, since
// spans inside the engine are not recorded.
func (r *traceResult) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "# id\tlayer\tname\tstart_ns\tend_ns\tself_ns\tparents\tkeys")
	var line []byte
	emit := func(id int, layer string, s span, self time.Duration, parents []int32, keys []int64) {
		line = strconv.AppendInt(line[:0], int64(id), 10)
		line = append(line, '\t')
		line = append(line, layer...)
		line = append(line, '\t')
		line = append(line, opNames[s.op]...)
		for _, v := range []time.Duration{s.start, s.end, self} {
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(v), 10)
		}
		line = append(line, '\t')
		if len(parents) == 0 {
			line = append(line, '-')
		}
		for n, p := range parents {
			if n > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, int64(p)+1, 10)
		}
		line = append(line, '\t')
		for n, k := range keys {
			if n > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, k, 10)
		}
		line = append(line, '\n')
		w.Write(line) // a bufio.Writer keeps its first error; Flush reports it
	}
	for i, c := range r.client {
		emit(i+1, "client", c, r.self[i], nil, []int64{c.key})
	}
	for j, e := range r.engine {
		keys := []int64{e.key}
		if e.op == engApply {
			keys = r.keys[e.first : e.first+e.n]
		}
		emit(len(r.client)+j+1, "engine", e, e.end-e.start, r.parents[r.parentOff[j]:r.parentOff[j+1]], keys)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
