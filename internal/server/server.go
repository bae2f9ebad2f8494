// Package server implements the network serving layer over the storage
// engine: the internal/wire protocol with per-connection pipelining, a
// group-commit loop that coalesces concurrent writes into one engine
// batch and a single WAL fsync, token-bucket backpressure, connection
// limits, read/write deadlines, graceful drain on shutdown, and live
// metrics and health over HTTP.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/replica"
	"lsmkv/internal/sketch"
	"lsmkv/internal/tuner"
	"lsmkv/internal/wire"
)

// Engine is the storage surface the server fronts. Both *core.DB and the
// public *lsmkv.DB satisfy it.
type Engine interface {
	Get(key []byte) ([]byte, error)
	// GetTraced is Get with a read-path trace (the TRACE opcode); the
	// trace is valid even when the error is the engine's not-found.
	GetTraced(key []byte) ([]byte, *iostat.Trace, error)
	Scan(lo, hi []byte, fn func(key, value []byte) bool) error
	ApplyBatch(ops []core.BatchOp, sync bool) error
	Stats() iostat.Snapshot
	// Latencies returns engine-level per-operation latency summaries
	// (nil when the engine is not tracking latency).
	Latencies() map[string]iostat.LatencySummary
	// Events returns the engine's retained lifecycle events, oldest first.
	Events() []iostat.Event
	// BackgroundError returns the engine's sticky background failure (a
	// flush or compaction that could not complete), or nil while healthy.
	// /healthz and /metrics report it.
	BackgroundError() error
	Flush() error
}

// ShardedEngine is the optional upgrade interface a keyspace-sharded
// engine (the public *lsmkv.DB) exposes. When Config.DB implements it and
// reports more than one shard, the server routes point writes to
// per-shard group-commit loops, splits BATCH requests into per-shard
// sub-batches, and publishes per-shard counter snapshots in /metrics and
// STATS.
type ShardedEngine interface {
	Engine
	// NumShards returns the engine's shard count.
	NumShards() int
	// ShardOf returns the shard index owning key.
	ShardOf(key []byte) int
	// ApplyShardBatch applies ops — all owned by shard i — atomically on
	// that shard.
	ApplyShardBatch(i int, ops []core.BatchOp, sync bool) error
	// ShardStats returns each shard's counter snapshot, indexed by shard.
	ShardStats() []iostat.Snapshot
}

// SeqEngine is the optional interface an engine with per-shard sequence
// watermarks exposes (the public *lsmkv.DB). It unlocks sequence-carrying
// write acks, the read-your-writes GET (min-seq), and the engine_seq
// field in STATS//metrics.
type SeqEngine interface {
	Engine
	// LastSeqs returns the per-shard applied sequence watermarks.
	LastSeqs() []uint64
	// WaitForSeq blocks until shard's watermark reaches seq or timeout.
	WaitForSeq(shard int, seq uint64, timeout time.Duration) error
}

// CheckpointEngine is the optional interface for engines that support
// online backups (the CHECKPOINT opcode).
type CheckpointEngine interface {
	Checkpoint(dstDir string) (checkpoint.Marker, error)
}

// MerkleEngine is the optional interface for engines that can summarize
// their logical content for divergence checks (the MERKLE opcode).
type MerkleEngine interface {
	MerkleAt(buckets int, seqs []uint64) (*replica.Tree, error)
}

// AppendGetter is the optional interface for engines whose point reads
// can append the value into a caller-supplied buffer (core, shard, and
// the public facade all do). The server uses it to encode GET responses
// straight into pooled response buffers — the wire side of the
// zero-allocation read path.
type AppendGetter interface {
	// GetAppend appends the value to dst and returns the extended slice;
	// on any error (including not-found) dst is returned unchanged.
	GetAppend(key, dst []byte) ([]byte, error)
}

// MultiGetter is the optional interface for engines that serve batched
// point reads natively (the MULTIGET opcode). The public *lsmkv.DB
// implements it with per-shard parallel fan-out; engines without it get
// a sequential per-key fallback.
type MultiGetter interface {
	// MultiGet returns values aligned with keys; nil entries mean absent.
	MultiGet(keys [][]byte) ([][]byte, error)
}

// TunerEngine is the optional interface for engines running the online
// self-tuner (the public *lsmkv.DB). It surfaces per-shard tuner status
// in STATS//metrics and powers `lsmctl tune status`.
type TunerEngine interface {
	// TunerStatus returns one status per shard tuner; nil when the tuner
	// is not running.
	TunerStatus() []tuner.Status
}

// Config parameterizes a Server. The zero value of every field except DB
// selects a sensible default.
type Config struct {
	// DB is the engine to serve (required).
	DB Engine
	// MaxConns bounds concurrent connections; excess accepts are closed
	// immediately. Default 1024.
	MaxConns int
	// MaxFrameBytes bounds request and response frames. Default 16 MiB.
	MaxFrameBytes int
	// IdleTimeout closes connections with no complete request for this
	// long. Default 5 minutes.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response flush. Default 30 seconds.
	WriteTimeout time.Duration
	// RatePerSec, when positive, enables token-bucket backpressure at
	// that many requests per second across all connections.
	RatePerSec float64
	// Burst is the token bucket capacity. Default max(16, RatePerSec).
	Burst int
	// MaxThrottleDelay is the longest a request waits for a token before
	// being shed with StatusThrottled. Default 1 second.
	MaxThrottleDelay time.Duration
	// SyncWrites fsyncs each commit group before acknowledging — full
	// durability at one fsync per group, not per write. Default off (the
	// engine's own WALSync option still applies if set).
	SyncWrites bool
	// MaxCommitOps bounds the ops folded into one engine batch. Default
	// 4096.
	MaxCommitOps int
	// MaxScanResults bounds pairs per SCANSTREAM frame. Default 4096.
	MaxScanResults int
	// Repl, when set, serves REPLSYNC streams from this primary-side
	// shipper. The caller owns its lifecycle and must have wired it to the
	// engine's commit hook.
	Repl *replica.Primary
	// Follower, when set, is this server's replication loop pulling from a
	// primary; its status appears in STATS//metrics. The caller owns its
	// lifecycle.
	Follower *replica.Follower
	// ReadOnly rejects PUT/DELETE/BATCH — the posture of a follower, whose
	// only writer is the replication stream applying below the protocol.
	ReadOnly bool
	// CheckpointDir, when non-empty, enables the CHECKPOINT opcode:
	// checkpoint names resolve to subdirectories of it.
	CheckpointDir string
	// Logf receives server event logs when set.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.DB == nil {
		return c, errors.New("server: Config.DB is required")
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Burst <= 0 {
		c.Burst = 16
		if int(c.RatePerSec) > c.Burst {
			c.Burst = int(c.RatePerSec)
		}
	}
	if c.MaxThrottleDelay <= 0 {
		c.MaxThrottleDelay = time.Second
	}
	if c.MaxCommitOps <= 0 {
		c.MaxCommitOps = 4096
	}
	if c.MaxScanResults <= 0 {
		c.MaxScanResults = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Server serves the KV protocol over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	// committers hold one group-commit loop per shard (a single one for
	// unsharded engines); sharded is non-nil when cfg.DB reports more
	// than one shard, and routes point writes and splits batches.
	committers []*committer
	sharded    ShardedEngine // nil for single-shard engines
	// sketches hold one write-stream sketch set per shard (aligned with
	// committers), fed from each commit loop and queried by SKETCH.
	sketches []*sketch.Set
	// Optional engine capabilities, nil when cfg.DB lacks them.
	seqEng    SeqEngine
	ckptEng   CheckpointEngine
	merkleEng MerkleEngine
	tunerEng  TunerEngine
	multiEng  MultiGetter
	appendEng AppendGetter
	bucket    *TokenBucket // nil when unlimited
	// events records serving-layer incidents (sheds, rejected
	// connections, drain); engine events live in the engine's own ring.
	events *iostat.EventLog

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining atomic.Bool
	started  atomic.Bool
	connWG   sync.WaitGroup
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		events:  iostat.NewEventLog(0),
		conns:   make(map[*conn]struct{}),
	}
	if sq, ok := cfg.DB.(SeqEngine); ok {
		s.seqEng = sq
	}
	if ce, ok := cfg.DB.(CheckpointEngine); ok {
		s.ckptEng = ce
	}
	if me, ok := cfg.DB.(MerkleEngine); ok {
		s.merkleEng = me
	}
	if te, ok := cfg.DB.(TunerEngine); ok {
		s.tunerEng = te
	}
	if mg, ok := cfg.DB.(MultiGetter); ok {
		s.multiEng = mg
	}
	if ag, ok := cfg.DB.(AppendGetter); ok {
		s.appendEng = ag
	}
	if se, ok := cfg.DB.(ShardedEngine); ok && se.NumShards() > 1 {
		s.sharded = se
		for i := 0; i < se.NumShards(); i++ {
			i := i
			c := newCommitter(
				func(ops []core.BatchOp, sync bool) error {
					return se.ApplyShardBatch(i, ops, sync)
				},
				cfg.MaxCommitOps, cfg.SyncWrites, s.metrics)
			if s.seqEng != nil {
				c.lastSeq = func() uint64 { return s.seqEng.LastSeqs()[i] }
			}
			s.committers = append(s.committers, c)
		}
	} else {
		c := newCommitter(cfg.DB.ApplyBatch, cfg.MaxCommitOps, cfg.SyncWrites, s.metrics)
		if s.seqEng != nil {
			c.lastSeq = func() uint64 { return s.seqEng.LastSeqs()[0] }
		}
		s.committers = []*committer{c}
	}
	s.sketches = make([]*sketch.Set, len(s.committers))
	for i, c := range s.committers {
		set := sketch.NewSet()
		s.sketches[i] = set
		// cfg.DB.Get routes by key, so even a per-shard committer's RMW
		// reads land on the right shard.
		c.get = cfg.DB.Get
		c.now = func() int64 { return time.Now().UnixNano() }
		c.observe = func(ops []core.BatchOp) {
			for _, op := range ops {
				set.Observe(op.Key)
			}
		}
	}
	if cfg.RatePerSec > 0 {
		s.bucket = NewTokenBucket(cfg.RatePerSec, cfg.Burst)
	}
	return s, nil
}

// Metrics exposes the live server counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Events returns the serving layer's retained incident events, oldest
// first (sheds, rejected connections, drain).
func (s *Server) Events() []iostat.Event { return s.events.Events() }

// Addr returns the listener address once serving ("" before).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	if s.started.CompareAndSwap(false, true) {
		for _, c := range s.committers {
			c.start()
		}
	}
	s.cfg.Logf("server: listening on %s", ln.Addr())
	var acceptDelay time.Duration // backoff for transient accept errors
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			// Transient failures (ECONNABORTED, EMFILE, ...) must not
			// kill the accept loop while connections and the committer
			// are live: back off and retry, as net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else {
					acceptDelay *= 2
				}
				if acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.cfg.Logf("server: accept error: %v; retrying in %v", err, acceptDelay)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		s.metrics.ConnsAccepted.Add(1)
		if !s.admit(nc) {
			continue
		}
	}
}

// admit registers a new connection, enforcing MaxConns and drain state.
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	if s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.metrics.ConnsRejected.Add(1)
		s.events.Add(iostat.Event{
			Type: iostat.EventConnRejected, FromLevel: -1, ToLevel: -1,
			Detail: nc.RemoteAddr().String(),
		})
		nc.Close()
		return false
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.metrics.ConnsActive.Add(1)
	go c.run()
	return true
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsActive.Add(-1)
	s.connWG.Done()
}

// Shutdown drains the server: it stops accepting, wakes every reader so
// no new requests are decoded, waits for all in-flight requests to be
// answered and their responses written, then stops the commit loop and
// flushes the engine. Acknowledged writes are never dropped. ctx bounds
// the wait; on expiry remaining connections are severed and the error
// reported.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	s.events.Add(iostat.Event{Type: iostat.EventDrain, FromLevel: -1, ToLevel: -1})
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.started.Load() {
		for _, c := range s.committers {
			c.stop()
		}
	}
	if err := s.cfg.DB.Flush(); err != nil && drainErr == nil {
		drainErr = err
	}
	s.cfg.Logf("server: drained")
	return drainErr
}
