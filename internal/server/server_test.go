package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
	"lsmkv/internal/vfs"
	"lsmkv/internal/wire"
)

// slowSyncFS injects a fixed latency into every file Sync, modeling a
// real disk's fsync cost on top of the in-memory filesystem so that
// group-commit coalescing shows up in wall-clock throughput.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (s slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (s slowSyncFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (s slowSyncFS) OpenReadWrite(name string) (vfs.File, error) {
	f, err := s.FS.OpenReadWrite(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

func testDBOpts(fs vfs.FS) core.Options {
	return core.Options{
		Dir:           "db",
		FS:            fs,
		MemtableBytes: 4 << 20,
		TrackLatency:  true,
	}
}

// startServer opens an engine on fs and serves it on a loopback
// listener. mutate, when non-nil, adjusts the config before server.New.
func startServer(t testing.TB, fs vfs.FS, mutate func(*server.Config)) (*server.Server, *core.DB) {
	t.Helper()
	db, err := core.Open(testDBOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{DB: db, SyncWrites: true}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // idempotent-ish: second call errors, ignored
		<-serveDone
		db.Close()
	})
	// Wait for the listener address to be visible.
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	return srv, db
}

func dialTest(t testing.TB, srv *server.Server, opts *client.Options) *client.Client {
	t.Helper()
	cl, err := client.Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServerBasicOps(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), nil)
	cl := dialTest(t, srv, nil)

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get alpha = %q, %v", v, err)
	}
	if _, err := cl.Get([]byte("missing")); err != client.ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := cl.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("alpha")); err != client.ErrNotFound {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}
	if err := cl.Batch([]client.Op{
		client.PutOp([]byte("c1"), []byte("x")),
		client.PutOp([]byte("c2"), []byte("y")),
		client.DeleteOp([]byte("beta")),
	}); err != nil {
		t.Fatal(err)
	}
	var pairs []string
	err = cl.ScanStream([]byte("a"), []byte("z"), func(k, v []byte) bool {
		pairs = append(pairs, string(k)+"="+string(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0] != "c1=x" || pairs[1] != "c2=y" {
		t.Fatalf("scan: %q, want [c1=x c2=y]", pairs)
	}
	body, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"server", "engine"} {
		if _, ok := payload[key]; !ok {
			t.Fatalf("stats missing %q section", key)
		}
	}
}

func TestScanPagination(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), func(c *server.Config) { c.MaxScanResults = 10 })
	cl := dialTest(t, srv, nil)
	const n = 37
	var ops []client.Op
	for i := 0; i < n; i++ {
		ops = append(ops, client.PutOp([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))))
	}
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}
	// 37 keys at 10 pairs per frame: the scan spans four frames.
	seen := 0
	err := cl.ScanAll([]byte("k"), []byte("l"), func(k, v []byte) bool {
		want := fmt.Sprintf("k%03d", seen)
		if string(k) != want {
			t.Fatalf("ScanAll order: got %q want %q", k, want)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("ScanAll saw %d keys, want %d", seen, n)
	}
}

// TestPipelinedThroughput is the acceptance E2E: concurrent pipelined
// clients must sustain >= 10x the throughput of one-request-per-round-
// trip operation. The engine runs on a filesystem with a 1ms fsync and
// the server acknowledges only after the commit group is synced, so the
// sequential client pays one fsync per write while the pipelined load
// amortizes each fsync across an entire commit group.
func TestPipelinedThroughput(t *testing.T) {
	fs := slowSyncFS{FS: vfs.NewMem(), delay: time.Millisecond}
	srv, _ := startServer(t, fs, nil)
	cl := dialTest(t, srv, nil)

	// Sequential: wait for each ack before issuing the next request.
	const seqOps = 100
	seqStart := time.Now()
	for i := 0; i < seqOps; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("seq%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	seqRate := float64(seqOps) / time.Since(seqStart).Seconds()

	// Pipelined: 64 concurrent writers share the same connection.
	const writers, perWriter = 64, 50
	before := srv.Metrics().Snapshot()
	pipeStart := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := cl.Put([]byte(fmt.Sprintf("p%02d-%04d", w, i)), []byte("v")); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	pipeRate := float64(writers*perWriter) / time.Since(pipeStart).Seconds()

	ratio := pipeRate / seqRate
	t.Logf("sequential %.0f ops/s, pipelined %.0f ops/s, ratio %.1fx", seqRate, pipeRate, ratio)
	if ratio < 10 {
		t.Fatalf("pipelined/sequential throughput ratio %.1fx, want >= 10x", ratio)
	}

	// Group commit must actually be coalescing: far fewer commit batches
	// than ops during the pipelined phase.
	after := srv.Metrics().Snapshot()
	batches := after.CommitBatches - before.CommitBatches
	ops := after.CommitOps - before.CommitOps
	if ops != writers*perWriter {
		t.Fatalf("committed %d ops, want %d", ops, writers*perWriter)
	}
	if mean := float64(ops) / float64(batches); mean < 4 {
		t.Fatalf("mean commit batch size %.1f, want >= 4 (no coalescing?)", mean)
	}
}

// TestShutdownDrains: a drain mid-load answers every in-flight request
// and loses no acknowledged write — the zero-dropped-acks guarantee.
func TestShutdownDrains(t *testing.T) {
	srv, db := startServer(t, vfs.NewMem(), nil)

	const writers = 16
	var (
		ackMu sync.Mutex
		acked []string
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr(), nil)
			if err != nil {
				return
			}
			defer cl.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("drain-w%02d-%06d", w, i)
				if err := cl.Put([]byte(key), []byte(key)); err != nil {
					return // drain reached this connection
				}
				ackMu.Lock()
				acked = append(acked, key)
				ackMu.Unlock()
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let load build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged before drain; test proves nothing")
	}
	missing := 0
	for _, key := range acked {
		v, err := db.Get([]byte(key))
		if err != nil || string(v) != key {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes missing after drain", missing, len(acked))
	}
	t.Logf("drained with %d acknowledged writes, all present", len(acked))
}

func TestConnectionLimit(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), func(c *server.Config) { c.MaxConns = 2 })
	c1 := dialTest(t, srv, nil)
	c2 := dialTest(t, srv, nil)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	// The third connection is accepted then immediately closed; its
	// first operation must fail (no retries configured).
	c3, err := client.Dial(srv.Addr(), nil)
	if err == nil {
		defer c3.Close()
		if err := c3.Ping(); err == nil {
			t.Fatal("third connection served beyond MaxConns=2")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().ConnsRejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ConnsRejected never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackpressureThrottles(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), func(c *server.Config) {
		c.RatePerSec = 200
		c.Burst = 10
		c.MaxThrottleDelay = 5 * time.Millisecond
	})

	// One connection per worker: the token-bucket sleep happens in each
	// connection's read loop, so a single connection self-paces to the
	// refill rate and is never shed. Shedding needs aggregate demand
	// across connections to outrun the bucket.
	var wg sync.WaitGroup
	var throttled, okCount int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		cl := dialTest(t, srv, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := cl.Get([]byte("nope"))
				mu.Lock()
				if err == client.ErrThrottled {
					throttled++
				} else if err == client.ErrNotFound {
					okCount++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if throttled == 0 {
		t.Fatalf("400 rapid requests at 200/s never throttled (ok=%d)", okCount)
	}
	if okCount == 0 {
		t.Fatal("every request throttled; bucket should admit the burst")
	}
	if got := srv.Metrics().Throttled.Load(); got == 0 {
		t.Fatal("metrics.Throttled not incremented")
	}
	t.Logf("ok=%d throttled=%d", okCount, throttled)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), nil)
	cl := dialTest(t, srv, nil)
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	h := srv.MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	var payload struct {
		Server server.Snapshot `json:"server"`
		Engine struct {
			WALSyncs         int64
			WALPreallocBytes int64
			BatchedOps       int64
		} `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if payload.Server.ConnsAccepted < 1 || payload.Server.CommitBatches < 1 {
		t.Fatalf("metrics look empty: %+v", payload.Server)
	}
	if payload.Engine.WALSyncs < 1 || payload.Engine.WALPreallocBytes < 1 || payload.Engine.BatchedOps < 1 {
		t.Fatalf("engine counters missing: %+v", payload.Engine)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz while serving: %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz while draining: %d, want 503", rec.Code)
	}
}

// TestHealthzReportsEngineError: once a flush fails (table creates fail
// through vfs.Faulty) the engine holds a sticky background error, and
// /healthz turns from 200 to 503 with the error text, /metrics carries
// it, and writes over the wire fail.
func TestHealthzReportsEngineError(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	srv, db := startServer(t, fs, nil)
	cl := dialTest(t, srv, nil)
	for i := 0; i < 100; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.MetricsHandler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz before the fault: %d %s", rec.Code, rec.Body)
	}

	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst", Repeat: true})
	if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush with table creates failing = %v, want the injected fault", err)
	}
	rec := get("/healthz")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), vfs.ErrInjected.Error()) {
		t.Fatalf("/healthz after the fault: %d %q, want 503 with the error", rec.Code, rec.Body)
	}
	var payload struct {
		EngineError string `json:"engine_error"`
	}
	if err := json.Unmarshal(get("/metrics").Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(payload.EngineError, vfs.ErrInjected.Error()) {
		t.Fatalf("/metrics engine_error = %q", payload.EngineError)
	}
	if err := cl.Put([]byte("after"), []byte("v")); err == nil {
		t.Fatal("a write succeeded on an engine with a sticky background error")
	}
}

// TestMalformedFrames: a parseable frame with a bad body
// gets an error response and the connection keeps serving; a broken
// frame closes the connection.
func TestMalformedFrames(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), nil)

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Valid frame, unknown opcode -> wire.StatusError, connection survives.
	bad := []byte{9, 0, 0, 0, 7, 0, 0, 0, 99, 1, 2, 3, 4}
	if _, err := nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(nc, wire.DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload, false)
	if err != nil || resp.Status != wire.StatusError {
		t.Fatalf("want wire.StatusError response, got %+v, %v", resp, err)
	}
	// Still serving: a ping round-trips.
	ping := wire.AppendRequest(nil, &wire.Request{ID: 5, Op: wire.OpPing})
	frame := append([]byte{byte(len(ping)), 0, 0, 0}, ping...)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(nc, wire.DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := wire.DecodeResponse(payload, false); resp.ID != 5 || resp.Status != wire.StatusOK {
		t.Fatalf("ping after malformed body: %+v", resp)
	}

	// Oversized frame length -> error response, then close.
	if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(nc, wire.DefaultMaxFrameBytes)
	if err == nil {
		if resp, _ := wire.DecodeResponse(payload, false); resp.Status != wire.StatusError {
			t.Fatalf("want wire.StatusError for oversized frame, got %+v", resp)
		}
		// Connection must now be closed by the server.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := wire.ReadFrame(nc, wire.DefaultMaxFrameBytes); err == nil {
			t.Fatal("connection still open after framing loss")
		}
	}
	if got := srv.Metrics().DecodeErrors.Load(); got < 2 {
		t.Fatalf("DecodeErrors = %d, want >= 2", got)
	}
}

// TestRetiredOpcodes: requests using the retired paged SCAN (5), GETSEQ
// (11) and PUTTTL (15) opcodes each get StatusError on their own request
// ID, and the connection keeps serving.
func TestRetiredOpcodes(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), nil)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	roundTrip := func(payload []byte) wire.Response {
		t.Helper()
		if err := wire.WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		raw, err := wire.ReadFrame(nc, wire.DefaultMaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(raw, false)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Each body is the retired opcode's old encoding.
	retired := []struct {
		op   byte
		body []byte
	}{
		{5, []byte{1, 'a', 1, 'z', 0}},        // SCAN lo hi limit
		{11, []byte{1, 'k', 7}},               // GETSEQ key minSeq
		{15, []byte{1, 'k', 1, 'v', 0xE8, 7}}, // PUTTTL key value ttl
	}
	for i, r := range retired {
		id := uint32(100 + i)
		payload := append(binary.LittleEndian.AppendUint32(nil, id), r.op)
		resp := roundTrip(append(payload, r.body...))
		if resp.ID != id || resp.Status != wire.StatusError {
			t.Fatalf("opcode %d: got %+v, want StatusError on ID %d", r.op, resp, id)
		}
		ping := roundTrip(wire.AppendRequest(nil, &wire.Request{ID: id + 10, Op: wire.OpPing}))
		if ping.ID != id+10 || ping.Status != wire.StatusOK {
			t.Fatalf("ping after opcode %d: %+v", r.op, ping)
		}
	}
}
