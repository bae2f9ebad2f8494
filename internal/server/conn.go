package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/wire"
)

// conn is one client connection. Three goroutines cooperate to give
// pipelining without unbounded buffering:
//
//   - readLoop decodes frames; reads (GET/SCANSTREAM/STATS/PING) execute
//     inline, writes are handed to the server-wide group committer and a
//     pending-ack token is queued on acks.
//   - ackLoop awaits each write's commit outcome in submission order and
//     emits its response.
//   - writeLoop serializes responses from out, flushing once the queue
//     goes momentarily idle so pipelined responses share syscalls.
//
// Responses carry request IDs, so reads and writes may complete out of
// order relative to each other; writes are acknowledged only after their
// commit group is applied (and fsynced when SyncWrites is on). A client
// that wants read-your-writes on one connection waits for the write ack
// before issuing the read.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	out  chan *respBuf
	acks chan *pendingWrite

	// stop closes when the connection is going away — on drain or when the
	// write side breaks. Replication streams (which occupy the read loop
	// and never see the read deadline) select on it to terminate.
	stop     chan struct{}
	stopOnce sync.Once

	dmu      sync.Mutex // guards read-deadline arming vs drain
	draining bool
}

// pendingWrite tracks one write awaiting its commit group — or, for a
// BATCH spanning shards, awaiting every involved shard's commit group.
// The ack goes out only after all of them complete; the first error wins.
type pendingWrite struct {
	id    uint32
	op    wire.Opcode
	start time.Time
	reqs  []*commitReq
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   bufio.NewWriterSize(nc, 64<<10),
		out:  make(chan *respBuf, 256),
		acks: make(chan *pendingWrite, 1024),
		stop: make(chan struct{}),
	}
}

// signalStop closes the connection's stop channel (idempotent).
func (c *conn) signalStop() {
	c.stopOnce.Do(func() { close(c.stop) })
}

func (c *conn) run() {
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	go c.ackLoop()
	c.readLoop()
	// readLoop is the only sender on acks; ackLoop drains what remains
	// (every queued write still gets its response) then closes out, and
	// writeLoop flushes before exiting. That ordering is the drain
	// guarantee: no acknowledged-or-accepted request is dropped.
	close(c.acks)
	<-writerDone
	c.nc.Close()
	c.srv.removeConn(c)
}

// beginDrain stops this connection from decoding further requests:
// in-flight ones still complete and their responses are written.
func (c *conn) beginDrain() {
	c.dmu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.dmu.Unlock()
	c.signalStop()
}

// armReadDeadline sets the idle deadline unless the connection is
// draining (in which case the now-deadline must stay in force).
func (c *conn) armReadDeadline() bool {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.draining {
		return false
	}
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	return true
}

func (c *conn) readLoop() {
	for {
		if !c.armReadDeadline() {
			return
		}
		payload, err := wire.ReadFrame(c.br, c.srv.cfg.MaxFrameBytes)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrMalformed) {
				// Framing is lost; tell the client why on the reserved
				// connection-level ID, then hang up.
				c.srv.metrics.DecodeErrors.Add(1)
				c.send(&wire.Response{ID: wire.ConnErrID, Status: wire.StatusError, Value: []byte(err.Error())})
			}
			return
		}
		c.srv.metrics.BytesIn.Add(int64(len(payload) + wire.FrameHeaderLen))
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// Frame boundary intact, body malformed: answer and carry on.
			c.srv.metrics.DecodeErrors.Add(1)
			c.send(&wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte(err.Error())})
			continue
		}
		c.dispatch(&req)
	}
}

func (c *conn) dispatch(req *wire.Request) {
	m := c.srv.metrics
	m.Inflight.Add(1)
	start := time.Now()

	if c.srv.bucket != nil && req.Op != wire.OpPing {
		wait, ok := c.srv.bucket.Reserve(c.srv.cfg.MaxThrottleDelay)
		if !ok {
			m.Throttled.Add(1)
			c.srv.events.Add(iostat.Event{
				Type: iostat.EventThrottle, FromLevel: -1, ToLevel: -1,
				Detail: req.Op.String(),
			})
			m.observeOp(req.Op, time.Since(start))
			c.send(&wire.Response{ID: req.ID, Status: wire.StatusThrottled, Value: []byte("rate limit exceeded")})
			return
		}
		if wait > 0 {
			// Sleeping in the read loop is the backpressure: this
			// connection stops feeding the server until its debt clears.
			m.ThrottleWaitNs.Add(int64(wait))
			time.Sleep(wait)
		}
	}

	switch req.Op {
	case wire.OpPing:
		c.finishRead(req, start, &wire.Response{ID: req.ID, Status: wire.StatusOK})
	case wire.OpGet:
		c.handleGet(req, start)
	case wire.OpMultiGet:
		c.handleMultiGet(req, start)
	case wire.OpScanStream:
		c.handleScanStream(req, start)
	case wire.OpStats:
		c.handleStats(req, start)
	case wire.OpTrace:
		c.handleTrace(req, start)
	case wire.OpCheckpoint:
		c.handleCheckpoint(req, start)
	case wire.OpMerkle:
		c.handleMerkle(req, start)
	case wire.OpReplSync:
		c.handleReplSync(req, start)
	case wire.OpSketch:
		c.handleSketch(req, start)
	case wire.OpPut:
		op := core.PutOp(req.Key, req.Value)
		if req.HasTTL {
			// The absolute expiry is stamped server-side at dispatch, so
			// clients never need a synchronized clock — only a duration.
			exp := time.Now().UnixNano() + int64(req.TTLMillis)*int64(time.Millisecond)
			op = core.PutTTLOp(req.Key, req.Value, exp)
		}
		c.submitWrite(req, start, []core.BatchOp{op})
	case wire.OpDelete:
		c.submitWrite(req, start, []core.BatchOp{core.DeleteOp(req.Key)})
	case wire.OpBatch:
		ops := make([]core.BatchOp, len(req.Ops))
		for i, op := range req.Ops {
			ops[i] = core.PutOp(op.Key, op.Value)
			if op.Delete {
				ops[i] = core.DeleteOp(op.Key)
			}
		}
		c.submitWrite(req, start, ops)
	case wire.OpIncr, wire.OpCas:
		c.submitRMW(req, start)
	}
}

// finishRead records metrics for an inline-served request and sends its
// response.
func (c *conn) finishRead(req *wire.Request, start time.Time, resp *wire.Response) {
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.send(resp)
}

// handleGet serves GET. A request carrying MinSeq is the
// read-your-writes GET: it first waits until the key's shard has applied
// at least MinSeq (on a follower, until replication catches up). Engines
// without sequence watermarks reject a MinSeq.
func (c *conn) handleGet(req *wire.Request, start time.Time) {
	if req.MinSeq > 0 {
		if c.srv.seqEng == nil {
			resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: engine has no sequence watermarks")}
			c.finishRead(req, start, &resp)
			return
		}
		shard := 0
		if c.srv.sharded != nil {
			shard = c.srv.sharded.ShardOf(req.Key)
		}
		if err := c.srv.seqEng.WaitForSeq(shard, req.MinSeq, seqWaitTimeout); err != nil {
			resp := errResponse(req.ID, err)
			c.finishRead(req, start, &resp)
			return
		}
	}
	ag := c.srv.appendEng
	if ag == nil {
		value, err := c.srv.cfg.DB.Get(req.Key)
		resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: value}
		if errors.Is(err, core.ErrNotFound) {
			resp = wire.Response{ID: req.ID, Status: wire.StatusNotFound}
		} else if err != nil {
			resp = errResponse(req.ID, err)
		}
		c.finishRead(req, start, &resp)
		return
	}
	// Append-capable engine: the value lands directly after the response
	// header in the pooled buffer — no intermediate value slice at all.
	rb := getRespBuf()
	rb.b = wire.AppendResponseHeader(rb.b, req.ID, wire.StatusOK)
	b, err := ag.GetAppend(req.Key, rb.b)
	switch {
	case err == nil:
		rb.b = b
	case errors.Is(err, core.ErrNotFound):
		rb.b = wire.AppendResponse(rb.b[:0], &wire.Response{ID: req.ID, Status: wire.StatusNotFound})
	default:
		resp := errResponse(req.ID, err)
		rb.b = wire.AppendResponse(rb.b[:0], &resp)
	}
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.sendBuf(rb)
}

// handleMultiGet serves the MULTIGET opcode: one batched lookup whose
// response carries found/value slots aligned with the request's keys.
// Engines exposing MultiGet (the sharded facade) fan the batch out per
// shard in parallel; others fall back to a sequential key loop.
func (c *conn) handleMultiGet(req *wire.Request, start time.Time) {
	var vals [][]byte
	var err error
	if mg := c.srv.multiEng; mg != nil {
		vals, err = mg.MultiGet(req.Keys)
	} else {
		vals = make([][]byte, len(req.Keys))
		for i, k := range req.Keys {
			v, gerr := c.srv.cfg.DB.Get(k)
			if errors.Is(gerr, core.ErrNotFound) {
				continue
			}
			if gerr != nil {
				err = gerr
				break
			}
			if v == nil {
				v = []byte{}
			}
			vals[i] = v
		}
	}
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	rb := getRespBuf()
	rb.b = wire.AppendResponseHeader(rb.b, req.ID, wire.StatusOK)
	rb.b = wire.AppendMultiGetValues(rb.b, vals)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.sendBuf(rb)
}

// handleScanStream serves SCANSTREAM: the whole scan flows to the
// client as a sequence of scan-page frames on this request's ID —
// more=1 frames while data remains, a final more=0 frame to end the
// stream. Like REPLSYNC it occupies the read loop, and the bounded out
// channel is the backpressure: a slow client stalls the scan instead of
// buffering it. Limit bounds pairs per frame, not the stream.
func (c *conn) handleScanStream(req *wire.Request, start time.Time) {
	limit := int(req.Limit)
	if limit <= 0 || limit > c.srv.cfg.MaxScanResults {
		limit = c.srv.cfg.MaxScanResults
	}
	byteBudget := c.srv.cfg.MaxFrameBytes / 2
	pairs := make([]wire.KV, 0, 16)
	used := 0
	stopped := false
	emit := func(more bool) {
		// send encodes synchronously, so the pair buffers may be reused
		// as soon as it returns.
		c.send(&wire.Response{ID: req.ID, Status: wire.StatusOK, Pairs: pairs, More: more})
		pairs = pairs[:0]
		used = 0
	}
	err := c.srv.cfg.DB.Scan(req.Lo, req.Hi, func(k, v []byte) bool {
		select {
		case <-c.stop:
			stopped = true
			return false
		default:
		}
		// The callback's slices are only valid during the call.
		pairs = append(pairs, wire.KV{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		used += len(k) + len(v) + 16
		if len(pairs) >= limit || used >= byteBudget {
			emit(true)
		}
		return true
	})
	if stopped {
		// Teardown mid-stream: the client learns from the closing
		// connection, not a frame.
		c.srv.metrics.observeOp(req.Op, time.Since(start))
		return
	}
	if err != nil {
		// A StatusError frame on this ID ends the stream.
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	emit(false)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
}

func (c *conn) handleStats(req *wire.Request, start time.Time) {
	body, err := json.Marshal(c.srv.payload())
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: body}
	if err != nil {
		resp = errResponse(req.ID, err)
	}
	c.finishRead(req, start, &resp)
}

// handleTrace serves the TRACE opcode: a traced point lookup whose JSON
// trace is the response body. Not-found is still StatusOK — the trace
// reports the outcome, and the miss path is the diagnostic payoff.
func (c *conn) handleTrace(req *wire.Request, start time.Time) {
	_, tr, err := c.srv.cfg.DB.GetTraced(req.Key)
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(tr)
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.finishRead(req, start, &resp)
}

// seqWaitTimeout bounds how long a min-seq GET waits for its shard's
// watermark; a lagging follower answers with an error the client can
// retry rather than holding the connection indefinitely.
const seqWaitTimeout = 30 * time.Second

// handleCheckpoint serves the CHECKPOINT opcode: an online backup into a
// named subdirectory of the server's checkpoint root. It runs inline —
// blocking only this connection — while writes proceed through the
// committers; the response body is the durable marker's JSON.
func (c *conn) handleCheckpoint(req *wire.Request, start time.Time) {
	name := string(req.Key)
	if c.srv.ckptEng == nil || c.srv.cfg.CheckpointDir == "" {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: checkpoints not enabled (no -checkpoint-dir)")}
		c.finishRead(req, start, &resp)
		return
	}
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: checkpoint name must be a plain directory name")}
		c.finishRead(req, start, &resp)
		return
	}
	info, err := c.srv.ckptEng.Checkpoint(filepath.Join(c.srv.cfg.CheckpointDir, name))
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(info)
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.srv.cfg.Logf("server: checkpoint %q: %d files, %d bytes", name, info.Files, info.Bytes)
	c.finishRead(req, start, &resp)
}

// handleMerkle serves the MERKLE opcode: a Merkle summary of the
// engine's logical content pinned at the request's sequence vector
// (current watermarks when empty). The full scan runs inline, blocking
// only this connection.
func (c *conn) handleMerkle(req *wire.Request, start time.Time) {
	if c.srv.merkleEng == nil {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: engine has no Merkle support")}
		c.finishRead(req, start, &resp)
		return
	}
	seqs := req.Seqs
	if len(seqs) == 0 {
		seqs = nil
	}
	// An explicit vector may be ahead of this server (a follower still
	// catching up to the primary's pin point): wait for each shard before
	// pinning, so cross-server comparison doesn't race replication.
	if seqs != nil && c.srv.seqEng != nil {
		for shard, seq := range seqs {
			if err := c.srv.seqEng.WaitForSeq(shard, seq, seqWaitTimeout); err != nil {
				resp := errResponse(req.ID, err)
				c.finishRead(req, start, &resp)
				return
			}
		}
	}
	tree, err := c.srv.merkleEng.MerkleAt(int(req.Buckets), seqs)
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(tree)
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.finishRead(req, start, &resp)
}

// handleReplSync turns the connection into a replication stream: frames
// flow as StatusOK responses bearing this request's ID until the
// follower hangs up, the server drains, or the follower's watermarks
// fall off the backlog (an error frame explains, then the stream ends).
// The call occupies the read loop, so the connection is dedicated —
// exactly how the follower uses it.
func (c *conn) handleReplSync(req *wire.Request, start time.Time) {
	if c.srv.cfg.Repl == nil {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: replication not enabled")}
		c.finishRead(req, start, &resp)
		return
	}
	c.srv.cfg.Logf("server: replication stream from %s at watermarks %v", c.nc.RemoteAddr(), req.Seqs)
	send := func(frame []byte) error {
		select {
		case <-c.stop:
			return errStreamStopped
		default:
		}
		c.send(&wire.Response{ID: req.ID, Status: wire.StatusOK, Value: frame})
		return nil
	}
	err := c.srv.cfg.Repl.Stream(req.Seqs, send, c.stop)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	if err != nil && !errors.Is(err, errStreamStopped) {
		c.srv.cfg.Logf("server: replication stream from %s ended: %v", c.nc.RemoteAddr(), err)
	}
}

// errStreamStopped marks a replication stream ended by connection
// teardown rather than a protocol condition.
var errStreamStopped = errors.New("server: stream stopped")

// submitWrite routes ops to their group committer(s) and queues the ack.
// Against a sharded engine, point writes go to the owning shard's
// committer and a BATCH is split into per-shard sub-batches, each
// submitted to its shard's committer; the ack waits for all of them. All
// channels apply backpressure by blocking the read loop when full.
func (c *conn) submitWrite(req *wire.Request, start time.Time, ops []core.BatchOp) {
	if c.srv.cfg.ReadOnly {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: read-only replica (writes go to the primary)")}
		c.finishRead(req, start, &resp)
		return
	}
	if len(ops) == 0 {
		c.finishRead(req, start, &wire.Response{ID: req.ID, Status: wire.StatusOK})
		return
	}
	pw := &pendingWrite{id: req.ID, op: req.Op, start: start}
	if se := c.srv.sharded; se == nil {
		cr := &commitReq{ops: ops, done: make(chan error, 1)}
		c.srv.committers[0].submit(cr)
		pw.reqs = append(pw.reqs, cr)
	} else if len(ops) == 1 {
		shard := se.ShardOf(ops[0].Key)
		cr := &commitReq{ops: ops, shard: shard, done: make(chan error, 1)}
		c.srv.committers[shard].submit(cr)
		pw.reqs = append(pw.reqs, cr)
	} else {
		subs := make([][]core.BatchOp, len(c.srv.committers))
		for _, op := range ops {
			i := se.ShardOf(op.Key)
			subs[i] = append(subs[i], op)
		}
		for i, sub := range subs {
			if len(sub) == 0 {
				continue
			}
			cr := &commitReq{ops: sub, shard: i, done: make(chan error, 1)}
			c.srv.committers[i].submit(cr)
			pw.reqs = append(pw.reqs, cr)
		}
	}
	c.acks <- pw
}

// handleSketch serves the SKETCH opcode from the server's per-shard
// write-stream sketches: freq routes to the key's owning shard's
// count-min; card sums the per-shard HyperLogLog estimates, which is
// sound because hash routing makes shard keyspaces disjoint.
func (c *conn) handleSketch(req *wire.Request, start time.Time) {
	var est uint64
	switch req.Sub {
	case wire.SketchFreq:
		shard := 0
		if se := c.srv.sharded; se != nil {
			shard = se.ShardOf(req.Key)
		}
		est = c.srv.sketches[shard].Freq(req.Key)
	case wire.SketchCard:
		for _, set := range c.srv.sketches {
			est += set.Card()
		}
	}
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Value: binary.AppendUvarint(nil, est)}
	c.finishRead(req, start, &resp)
}

// submitRMW routes an INCR or CAS to its key's group committer, which
// resolves it atomically under the shard's single-writer serialization;
// the ack carries the result (or the conflict).
func (c *conn) submitRMW(req *wire.Request, start time.Time) {
	if c.srv.cfg.ReadOnly {
		resp := wire.Response{ID: req.ID, Status: wire.StatusError, Value: []byte("server: read-only replica (writes go to the primary)")}
		c.finishRead(req, start, &resp)
		return
	}
	rmw := &rmwOp{
		op:          req.Op,
		key:         req.Key,
		delta:       req.Delta,
		expected:    req.Expected,
		hasExpected: req.HasExpected,
		newValue:    req.Value,
	}
	shard := 0
	if se := c.srv.sharded; se != nil {
		shard = se.ShardOf(req.Key)
	}
	cr := &commitReq{rmw: rmw, shard: shard, done: make(chan error, 1)}
	c.srv.committers[shard].submit(cr)
	c.acks <- &pendingWrite{id: req.ID, op: req.Op, start: start, reqs: []*commitReq{cr}}
}

func (c *conn) ackLoop() {
	for pw := range c.acks {
		var err error
		for _, cr := range pw.reqs {
			if e := <-cr.done; e != nil && err == nil {
				err = e
			}
		}
		resp := wire.Response{ID: pw.id, Status: wire.StatusOK}
		if err != nil {
			resp = errResponse(pw.id, err)
		} else if len(pw.reqs) == 1 && pw.reqs[0].rmw != nil {
			// RMW acks own their body (the INCR result), so they carry no
			// seq-ack coordinates; see PROTOCOL.md.
			rmw := pw.reqs[0].rmw
			switch {
			case errors.Is(rmw.err, core.ErrCASMismatch):
				resp = wire.Response{ID: pw.id, Status: wire.StatusConflict, Value: []byte(rmw.err.Error())}
			case rmw.err != nil:
				resp = errResponse(pw.id, rmw.err)
			case pw.op == wire.OpIncr:
				resp.Value = binary.AppendVarint(nil, rmw.result)
			}
		} else if c.srv.seqEng != nil {
			// Successful write acks carry (shard, seq) coordinates for
			// read-your-writes against replicas; clients that predate them
			// ignore ack bodies.
			acks := make([]wire.ShardSeq, 0, len(pw.reqs))
			for _, cr := range pw.reqs {
				if cr.seq > 0 {
					acks = append(acks, wire.ShardSeq{Shard: cr.shard, Seq: cr.seq})
				}
			}
			if len(acks) > 0 {
				resp.Value = wire.AppendSeqAcks(nil, acks)
			}
		}
		c.srv.metrics.observeOp(pw.op, time.Since(pw.start))
		c.send(&resp)
	}
	close(c.out)
}

func errResponse(id uint32, err error) wire.Response {
	status := wire.StatusError
	if errors.Is(err, core.ErrClosed) {
		status = wire.StatusShutdown
	}
	return wire.Response{ID: id, Status: status, Value: []byte(err.Error())}
}

// send encodes resp into a pooled buffer and queues it; it blocks when
// the client stops reading (bounded buffering, natural backpressure).
// The write loop returns the buffer to the pool after the frame is out.
func (c *conn) send(resp *wire.Response) {
	rb := getRespBuf()
	rb.b = wire.AppendResponse(rb.b, resp)
	c.sendBuf(rb)
}

// sendBuf queues an already-encoded pooled payload. Everything on c.out
// is pool-owned: the write loop is the single point of release.
func (c *conn) sendBuf(rb *respBuf) {
	c.out <- rb
}

func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	broken := false
	write := func(rb *respBuf) {
		defer putRespBuf(rb)
		if broken {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := wire.WriteFrame(c.bw, rb.b); err != nil {
			// The connection is dead: keep draining out so the other
			// goroutines never block, and close to unblock the reader. The
			// stop signal terminates any replication stream feeding out.
			broken = true
			c.nc.Close()
			c.signalStop()
			return
		}
		c.srv.metrics.BytesOut.Add(int64(len(rb.b) + wire.FrameHeaderLen))
	}
	flush := func() {
		if broken {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := c.bw.Flush(); err != nil {
			broken = true
			c.nc.Close()
			c.signalStop()
		}
	}
	for rb := range c.out {
		write(rb)
		// Fold every already-queued response into this flush: pipelined
		// responses share syscalls the same way commits share fsyncs.
	batch:
		for {
			select {
			case rb2, open := <-c.out:
				if !open {
					break batch
				}
				write(rb2)
			default:
				break batch
			}
		}
		flush()
	}
	flush()
}
