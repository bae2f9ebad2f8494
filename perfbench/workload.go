package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"lsmkv/internal/client"
	wl "lsmkv/internal/workload"
)

// workload is one traffic mix. Key index i is the 16-byte key
// "user%012d"; the loaded keys are the multiples of stride below span,
// so with stride 2 every odd index is a key the engine never saw.
type workload struct {
	name      string
	why       string
	span      int64
	stride    int64
	valueSize int
	// zipf draws indexes Zipfian (theta 0.99, scrambled); else uniform.
	zipf bool
	// readPct is the share of requests, in percent, that are the
	// workload's read; the rest are its side request.
	readPct int
	// mget > 0 reads with MULTIGETs of that many keys, half loaded and
	// half absent; 0 reads with single GETs.
	mget int
	// scan > 0 makes the side request a SCANSTREAM over that many loaded
	// keys; 0 makes it a PUT of the caller's own key.
	scan int
}

// The three workloads give each layer one mix where it does most of the
// work and one where it does little; see README.md for the full table.
var workloads = []workload{
	{
		name: "hot-get", span: 50_000, stride: 1, valueSize: 100, zipf: true, readPct: 95,
		why: "YCSB-B, Zipfian 0.99, 50k x 100 B (~6 MB) fits the 8 MiB block cache: tiny cached reads, so client, wire and server dominate",
	},
	{
		name: "cold-mget", span: 1_000_000, stride: 2, valueSize: 100, readPct: 95, mget: 32, scan: 16,
		why: "32-key MULTIGETs (half absent) and 16-key scans over 500k x 100 B (~58 MB, ~7x the 8 MiB block cache): filters, fences, block reads",
	},
	{
		name: "write-mix", span: 100_000, stride: 1, valueSize: 1000, readPct: 50,
		why: "YCSB-A, uniform, 100k x 1000 B (~25x the 4 MiB memtable), sync on: each PUT pays group commit and fsync; compactions run under GETs",
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// writes reports whether the side request is a PUT.
func (w *workload) writes() bool { return w.scan == 0 }

// loaded is the number of keys setup loads.
func (w *workload) loaded() int64 { return w.span / w.stride }

const keyLen = 16

func appendKey(dst []byte, i int64) []byte {
	var d [keyLen]byte
	copy(d[:], "user")
	for j := keyLen - 1; j >= 4; j-- {
		d[j] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, d[:]...)
}

// keyIndex parses a key built by appendKey.
func keyIndex(key []byte) (int64, bool) {
	if len(key) != keyLen || !bytes.HasPrefix(key, []byte("user")) {
		return 0, false
	}
	var i int64
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		i = i*10 + int64(c-'0')
	}
	return i, true
}

// appendValue appends version ver of key i's value: the key, the
// version, then filler drawn from (i, ver). A reader can tell from the
// bytes alone which key and version it holds and whether any byte is
// wrong. size must be at least keyLen+4.
func appendValue(dst []byte, i int64, ver uint32, size int) []byte {
	base := len(dst)
	dst = appendKey(dst, i)
	dst = binary.LittleEndian.AppendUint32(dst, ver)
	x := uint64(i)<<32 | uint64(ver)
	for len(dst)-base < size {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		dst = binary.LittleEndian.AppendUint64(dst, z^(z>>31))
	}
	return dst[:base+size]
}

// Request kinds: each workload has one read and one side request.
const (
	kindRead = iota
	kindSide
)

// Modes of the timed window: the traced run alternates slices served by
// the plain server and by the server fronting the tracing shim.
const (
	modePlain = iota
	modeTraced
)

// caller is one closed-loop client: it sends its next request only after
// the previous one is answered, and checks every answer against its
// model of the data.
type caller struct {
	w    *workload
	id   int64 // on writing workloads, owns the indexes i with i%2 == id
	rng  *rand.Rand
	zipf *wl.KeyGen // nil for uniform workloads
	// vers is the model: the version of each owned key (index i at i/2)
	// as last acknowledged, or -1 after a failed PUT left it unknown.
	vers    []int64
	nextVer uint32
	cls     [2]*client.Client // indexed by mode
	base    time.Time         // span clock origin

	// The request in flight: a warm-up request is checked but not
	// recorded; a timed one is recorded under its slice of the window,
	// and sent to the server of its mode.
	warm  bool
	slice int
	mode  int

	lat       [2][][]time.Duration // [kind][slice]
	reqs      []int64              // per slice
	puts      []int64              // acknowledged PUTs per slice
	putBytes  []int64              // their key+value bytes
	attempted int64
	failed    int64
	firstErr  error
	spans     []span // client spans of traced-mode requests

	key, hi, val, exp []byte
	mkeys             [][]byte
	midx              []int64
}

func newCaller(w *workload, id, seed int64, cls [2]*client.Client, base time.Time, sliceLen time.Duration, slices int, tracing bool) *caller {
	c := &caller{
		w:        w,
		id:       id,
		rng:      rand.New(rand.NewSource(seed*1000 + id)),
		cls:      cls,
		base:     base,
		reqs:     make([]int64, slices),
		puts:     make([]int64, slices),
		putBytes: make([]int64, slices),
	}
	if w.zipf {
		c.zipf = wl.NewKeyGen(wl.Zipfian, w.span, 0.99, seed*1000+100+id)
	}
	if w.writes() {
		c.vers = make([]int64, w.span/2)
	}
	// Latency storage is sized before the window opens so the generator's
	// memory does not grow while it is timed: room for 60k requests per
	// second per caller, well above what one synchronous caller reaches.
	perSlice := int(sliceLen.Seconds()*60_000) + 64
	for k := range c.lat {
		n := perSlice
		if k == kindSide {
			n = perSlice*(100-w.readPct)/100 + 64
		}
		c.lat[k] = make([][]time.Duration, slices)
		for s := range c.lat[k] {
			c.lat[k][s] = make([]time.Duration, 0, n)
		}
	}
	if tracing {
		c.spans = make([]span, 0, perSlice*slices/2)
	}
	for j := 0; j < w.mget; j++ {
		c.mkeys = append(c.mkeys, make([]byte, 0, keyLen))
	}
	c.midx = make([]int64, w.mget)
	return c
}

// run drives requests until the window of len(c.reqs) slices of
// sliceLen, opening at t0, has passed. Requests sent before t0 warm the
// caches. With tracing, odd slices go to the traced server.
func (c *caller) run(t0 time.Time, sliceLen time.Duration, tracing bool) {
	window := sliceLen * time.Duration(len(c.reqs))
	for {
		el := time.Since(t0)
		if el >= window {
			return
		}
		c.warm = el < 0
		c.slice = max(0, int(el/sliceLen))
		c.mode = modePlain
		if tracing && c.slice%2 == 1 {
			c.mode = modeTraced
		}
		if c.rng.Intn(100) < c.w.readPct {
			if c.w.mget > 0 {
				c.multiGet()
			} else {
				c.get()
			}
		} else if c.w.writes() {
			c.put()
		} else {
			c.scanStream()
		}
	}
}

// pick draws a loaded key index.
func (c *caller) pick() int64 {
	if c.zipf != nil {
		return wl.ScrambleKey(c.zipf.Next(), c.w.span)
	}
	return c.rng.Int63n(c.w.loaded()) * c.w.stride
}

// expect is the version a read of loaded key i must return, or -1 when
// any self-consistent version will do (a key the other caller writes).
func (c *caller) expect(i int64) int64 {
	if !c.w.writes() {
		return 0
	}
	if i%2 != c.id {
		return -1
	}
	return c.vers[i/2]
}

// valueOK checks that v is a well-formed value of key i, at version want
// when want >= 0.
func (c *caller) valueOK(v []byte, i, want int64) bool {
	if len(v) != c.w.valueSize {
		return false
	}
	if j, ok := keyIndex(v[:keyLen]); !ok || j != i {
		return false
	}
	ver := binary.LittleEndian.Uint32(v[keyLen:])
	if want >= 0 && int64(ver) != want {
		return false
	}
	c.exp = appendValue(c.exp[:0], i, ver, c.w.valueSize)
	return bytes.Equal(v, c.exp)
}

func (c *caller) get() {
	i := c.pick()
	c.key = appendKey(c.key[:0], i)
	start := time.Now()
	v, err := c.cls[c.mode].Get(c.key)
	end := time.Now()
	if err == nil && !c.valueOK(v, i, c.expect(i)) {
		err = fmt.Errorf("GET %s: wrong value %q", c.key, v)
	}
	c.record(kindRead, opGet, i, start, end, err)
}

func (c *caller) multiGet() {
	for j := range c.mkeys {
		i := c.rng.Int63n(c.w.loaded())*c.w.stride + int64(j&1)
		c.midx[j] = i
		c.mkeys[j] = appendKey(c.mkeys[j][:0], i)
	}
	start := time.Now()
	vals, err := c.cls[c.mode].MultiGet(c.mkeys)
	end := time.Now()
	for j := 0; err == nil && j < len(vals); j++ {
		i := c.midx[j]
		if i%c.w.stride != 0 {
			if vals[j] != nil {
				err = fmt.Errorf("MULTIGET slot %d: absent key %s returned %q", j, c.mkeys[j], vals[j])
			}
		} else if vals[j] == nil || !c.valueOK(vals[j], i, c.expect(i)) {
			err = fmt.Errorf("MULTIGET slot %d: key %s returned %q", j, c.mkeys[j], vals[j])
		}
	}
	c.record(kindRead, opMultiGet, c.midx[0], start, end, err)
}

func (c *caller) scanStream() {
	n := int64(c.w.scan)
	s := c.rng.Int63n(c.w.loaded()-n) * c.w.stride
	c.key = appendKey(c.key[:0], s)
	c.hi = appendKey(c.hi[:0], s+n*c.w.stride-1)
	lo, hi := c.key, c.hi
	next, got := s, int64(0)
	var bad error
	start := time.Now()
	err := c.cls[c.mode].ScanStream(lo, hi, func(k, v []byte) bool {
		i, ok := keyIndex(k)
		if !ok || got >= n || i != next || !c.valueOK(v, i, c.expect(i)) {
			bad = fmt.Errorf("SCANSTREAM [%s, %s]: pair %d is %q, want key index %d", lo, hi, got, k, next)
			return false
		}
		next += c.w.stride
		got++
		return true
	})
	end := time.Now()
	if err == nil {
		err = bad
	}
	if err == nil && got != n {
		err = fmt.Errorf("SCANSTREAM [%s, %s]: %d keys, want %d", lo, hi, got, n)
	}
	c.record(kindSide, opScan, s, start, end, err)
}

func (c *caller) put() {
	i := c.pick()&^1 | c.id
	c.nextVer++
	ver := c.nextVer
	c.key = appendKey(c.key[:0], i)
	c.val = appendValue(c.val[:0], i, ver, c.w.valueSize)
	start := time.Now()
	err := c.cls[c.mode].Put(c.key, c.val)
	end := time.Now()
	if err == nil {
		c.vers[i/2] = int64(ver)
		if !c.warm {
			c.puts[c.slice]++
			c.putBytes[c.slice] += int64(len(c.key) + len(c.val))
		}
	} else {
		c.vers[i/2] = -1
	}
	c.record(kindSide, opPut, i, start, end, err)
}

func (c *caller) record(kind int, op spanOp, key int64, start, end time.Time, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	if c.warm {
		return
	}
	c.reqs[c.slice]++
	c.lat[kind][c.slice] = append(c.lat[kind][c.slice], end.Sub(start))
	if c.mode == modeTraced {
		c.spans = append(c.spans, span{op: op, key: key, start: start.Sub(c.base), end: end.Sub(c.base)})
	}
}
