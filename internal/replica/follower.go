package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/iostat"
	"lsmkv/internal/wire"
)

// FollowerConfig configures a follower's replication loop.
type FollowerConfig struct {
	// Addr is the primary server's address.
	Addr string
	// DB is the local engine records are applied to.
	DB Target
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// IdleTimeout drops a connection that delivers no frame for this
	// long; heartbeats arrive every ~500ms, so the default 10s means a
	// silently dead link is redialed quickly.
	IdleTimeout time.Duration
	// RetryBackoff is the initial reconnect delay (default 100ms),
	// doubling to MaxBackoff (default 5s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Events, when non-nil, records connect/disconnect transitions.
	Events *iostat.EventLog
	// Logf logs loop transitions; nil discards.
	Logf func(format string, args ...any)
}

// FollowerStatus is the replication loop's observable state.
type FollowerStatus struct {
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	// Fatal is set when the loop has permanently stopped (watermark off
	// the primary's backlog: re-bootstrap required).
	Fatal bool `json:"fatal,omitempty"`
	// AppliedSeqs is the local engine's watermark vector; PrimarySeqs is
	// the primary's, from its latest heartbeat.
	AppliedSeqs []uint64 `json:"applied_seqs"`
	PrimarySeqs []uint64 `json:"primary_seqs"`
	// Lag is the summed per-shard sequence gap (0 when caught up).
	Lag            uint64 `json:"lag"`
	LastError      string `json:"last_error,omitempty"`
	Reconnects     int64  `json:"reconnects"`
	FramesReceived int64  `json:"frames_received"`
	RecordsApplied int64  `json:"records_applied"`
	BytesApplied   int64  `json:"bytes_applied"`
}

// Follower maintains a replication stream from a primary: dial, send
// REPLSYNC with the engine's recovered watermarks, apply record frames,
// reconnect with backoff on any transport failure. Start it after the
// engine opens; Stop joins the loop.
type Follower struct {
	cfg  FollowerConfig
	stop chan struct{}
	done sync.WaitGroup

	mu          sync.Mutex
	conn        net.Conn
	connected   bool
	fatal       bool
	stopped     bool
	lastErr     string
	primarySeqs []uint64
	reconnects  int64
	frames      int64
	records     int64
	bytes       int64
}

// NewFollower builds a follower; call Start to begin streaming.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Follower{cfg: cfg, stop: make(chan struct{})}
}

// Start launches the replication loop.
func (f *Follower) Start() {
	f.done.Add(1)
	go f.run()
}

// Stop terminates the loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		f.done.Wait()
		return
	}
	f.stopped = true
	close(f.stop)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.done.Wait()
}

func (f *Follower) run() {
	defer f.done.Done()
	backoff := f.cfg.RetryBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.syncOnce(&backoff)
		f.setDisconnected(err)
		if err == nil {
			return // stopped
		}
		if errors.Is(err, ErrTooOld) {
			f.mu.Lock()
			f.fatal = true
			f.mu.Unlock()
			f.cfg.Logf("replica: stream fatal: %v", err)
			return
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.MaxBackoff {
			backoff = f.cfg.MaxBackoff
		}
	}
}

// syncOnce runs one connection lifetime: dial, handshake, apply frames
// until the link breaks (error), the stream turns fatal (ErrTooOld), or
// Stop closes the connection (nil).
func (f *Follower) syncOnce(backoff *time.Duration) error {
	conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}()

	watermarks := f.cfg.DB.LastSeqs()
	bw := bufio.NewWriter(conn)
	req := wire.Request{ID: 1, Op: wire.OpReplSync, Seqs: watermarks}
	if err := wire.WriteFrame(bw, wire.AppendRequest(nil, &req)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	first := true
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.IdleTimeout))
		// Each payload is freshly allocated: applied records alias it.
		payload, err := wire.ReadFrame(br, wire.DefaultMaxFrameBytes)
		if err != nil {
			if f.isStopped() {
				return nil
			}
			return err
		}
		resp, err := wire.DecodeResponse(payload, false)
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("replica: server rejected stream: %s", resp.Value)
		}
		frame, err := DecodeFrame(resp.Value)
		if err != nil {
			return err
		}
		if first {
			// Any decoded frame completes the handshake.
			first = false
			*backoff = f.cfg.RetryBackoff
			f.setConnected(watermarks)
		}
		f.mu.Lock()
		f.frames++
		f.mu.Unlock()
		switch frame.Kind {
		case FrameHeartbeat:
			f.mu.Lock()
			f.primarySeqs = append(f.primarySeqs[:0], frame.Seqs...)
			f.mu.Unlock()
		case FrameRecords:
			if frame.Shard >= f.cfg.DB.NumShards() {
				return fmt.Errorf("replica: frame for shard %d, engine has %d", frame.Shard, f.cfg.DB.NumShards())
			}
			for _, rec := range frame.Records {
				if _, err := f.cfg.DB.ApplyReplicated(frame.Shard, rec); err != nil {
					return err
				}
				f.mu.Lock()
				f.records++
				f.bytes += int64(len(rec))
				f.mu.Unlock()
			}
		case FrameError:
			if strings.Contains(frame.Err, "re-bootstrap") {
				return fmt.Errorf("%w: %s", ErrTooOld, frame.Err)
			}
			return fmt.Errorf("replica: stream error from primary: %s", frame.Err)
		}
	}
}

func (f *Follower) isStopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *Follower) setConnected(watermarks []uint64) {
	f.mu.Lock()
	f.connected = true
	f.lastErr = ""
	f.reconnects++
	// A heartbeat from the dropped stream says nothing about this one:
	// until the new stream's first heartbeat, lag is unknown, not zero.
	f.primarySeqs = f.primarySeqs[:0]
	f.mu.Unlock()
	f.cfg.Events.Add(iostat.Event{
		Type: iostat.EventReplConnect, FromLevel: -1, ToLevel: -1,
		Detail: fmt.Sprintf("%s watermarks %v", f.cfg.Addr, watermarks),
	})
	f.cfg.Logf("replica: streaming from %s at watermarks %v", f.cfg.Addr, watermarks)
}

func (f *Follower) setDisconnected(err error) {
	f.mu.Lock()
	was := f.connected
	f.connected = false
	if err != nil {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
	if was {
		f.cfg.Events.Add(iostat.Event{
			Type: iostat.EventReplDisconnect, FromLevel: -1, ToLevel: -1,
			Detail: fmt.Sprintf("%s: %v", f.cfg.Addr, err),
		})
		if err != nil {
			f.cfg.Logf("replica: stream to %s dropped: %v", f.cfg.Addr, err)
		}
	}
}

// Status reports the loop's current state, including live lag against
// the last heartbeat.
func (f *Follower) Status() FollowerStatus {
	applied := f.cfg.DB.LastSeqs()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{
		Addr:           f.cfg.Addr,
		Connected:      f.connected,
		Fatal:          f.fatal,
		AppliedSeqs:    applied,
		PrimarySeqs:    append([]uint64(nil), f.primarySeqs...),
		LastError:      f.lastErr,
		Reconnects:     f.reconnects,
		FramesReceived: f.frames,
		RecordsApplied: f.records,
		BytesApplied:   f.bytes,
	}
	for i, ps := range st.PrimarySeqs {
		if i < len(applied) && ps > applied[i] {
			st.Lag += ps - applied[i]
		}
	}
	return st
}

// WaitCaughtUp blocks until the follower is connected and its applied
// watermarks have reached the primary's last heartbeat, or the timeout
// elapses.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := f.Status()
		if st.Fatal {
			return fmt.Errorf("replica: follower fatal: %s", st.LastError)
		}
		if st.Connected && len(st.PrimarySeqs) > 0 && st.Lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: not caught up after %v (lag %d, connected %v, err %q)",
				timeout, st.Lag, st.Connected, st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
