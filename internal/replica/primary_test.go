package replica

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// collectStream runs p.Stream in a goroutine, decoding every frame sent,
// and returns a stop function that joins the stream and reports its
// error.
func collectStream(t *testing.T, p *Primary, watermarks []uint64) (frames chan *Frame, stop func() error) {
	t.Helper()
	frames = make(chan *Frame, 128)
	stopCh := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Stream(watermarks, func(body []byte) error {
			f, err := DecodeFrame(body)
			if err != nil {
				t.Errorf("stream sent undecodable frame: %v", err)
				return err
			}
			frames <- f
			return nil
		}, stopCh)
	}()
	var once sync.Once
	return frames, func() error {
		once.Do(func() { close(stopCh) })
		select {
		case err := <-errCh:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("stream did not exit after stop")
			return nil
		}
	}
}

func waitFrame(t *testing.T, frames chan *Frame, kind byte) *Frame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-frames:
			if f.Kind == kind {
				return f
			}
		case <-deadline:
			t.Fatalf("no frame of kind %d arrived", kind)
		}
	}
}

func TestPrimaryStreamShipsCommits(t *testing.T) {
	var mu sync.Mutex
	seqs := []uint64{0, 0}
	p := NewPrimary(PrimaryConfig{
		Shards:            2,
		HeartbeatInterval: 20 * time.Millisecond,
		LastSeqs: func() []uint64 {
			mu.Lock()
			defer mu.Unlock()
			return append([]uint64(nil), seqs...)
		},
	})
	defer p.Close()

	frames, stop := collectStream(t, p, []uint64{0, 0})
	// The handshake heartbeat arrives before any records.
	if hb := waitFrame(t, frames, FrameHeartbeat); len(hb.Seqs) != 2 {
		t.Fatalf("handshake heartbeat seqs: %v", hb.Seqs)
	}

	commit := func(shard int, first uint64, count int, payload string) {
		mu.Lock()
		seqs[shard] = first + uint64(count) - 1
		mu.Unlock()
		p.OnCommit(shard, first, count, []byte(payload))
	}
	commit(0, 1, 2, "s0-batch1")
	commit(1, 1, 1, "s1-batch1")
	commit(0, 3, 1, "s0-batch2")

	var got0, got1 [][]byte
	deadline := time.After(5 * time.Second)
	for len(got0) < 2 || len(got1) < 1 {
		select {
		case f := <-frames:
			if f.Kind != FrameRecords {
				continue
			}
			cp := make([][]byte, len(f.Records))
			for i, r := range f.Records {
				cp[i] = append([]byte(nil), r...)
			}
			if f.Shard == 0 {
				got0 = append(got0, cp...)
			} else {
				got1 = append(got1, cp...)
			}
		case <-deadline:
			t.Fatalf("records did not arrive: shard0=%d shard1=%d", len(got0), len(got1))
		}
	}
	if !bytes.Equal(got0[0], []byte("s0-batch1")) || !bytes.Equal(got0[1], []byte("s0-batch2")) {
		t.Fatalf("shard 0 records out of order: %q", got0)
	}
	if !bytes.Equal(got1[0], []byte("s1-batch1")) {
		t.Fatalf("shard 1 records: %q", got1)
	}

	// The stream counts a frame once its send returns, which can be just
	// after the frame reached this goroutine: wait for the count.
	st := p.Status()
	for wait := time.Now().Add(5 * time.Second); st.RecordsSent < 3 && time.Now().Before(wait); st = p.Status() {
		time.Sleep(time.Millisecond)
	}
	if st.Streams != 1 || st.RecordsSent < 3 {
		t.Fatalf("status mid-stream: %+v", st)
	}
	if err := stop(); err != nil {
		t.Fatalf("clean stop returned %v", err)
	}
	if st := p.Status(); st.Streams != 0 {
		t.Fatalf("stream still registered after stop: %+v", st)
	}
}

func TestPrimaryStreamWatermarkMismatch(t *testing.T) {
	p := NewPrimary(PrimaryConfig{Shards: 2})
	defer p.Close()
	var sent []*Frame
	err := p.Stream([]uint64{0}, func(body []byte) error {
		f, _ := DecodeFrame(body)
		sent = append(sent, f)
		return nil
	}, make(chan struct{}))
	if err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if len(sent) != 1 || sent[0].Kind != FrameError {
		t.Fatalf("no error frame before failing: %+v", sent)
	}
}

func TestPrimaryStreamTooOld(t *testing.T) {
	p := NewPrimary(PrimaryConfig{Shards: 1, BacklogBytes: 250})
	defer p.Close()
	for i := uint64(1); i <= 10; i++ {
		p.OnCommit(0, i, 1, bytes.Repeat([]byte("z"), 100))
	}
	var gotErrFrame bool
	err := p.Stream([]uint64{0}, func(body []byte) error {
		f, derr := DecodeFrame(body)
		if derr == nil && f.Kind == FrameError {
			gotErrFrame = true
		}
		return nil
	}, make(chan struct{}))
	if !errors.Is(err, ErrTooOld) {
		t.Fatalf("evicted watermark: got %v, want ErrTooOld", err)
	}
	if !gotErrFrame {
		t.Fatal("no error frame shipped before the fatal return")
	}
}

func TestPrimaryClosed(t *testing.T) {
	p := NewPrimary(PrimaryConfig{Shards: 1})
	p.Close()
	err := p.Stream([]uint64{0}, func([]byte) error { return nil }, make(chan struct{}))
	if !errors.Is(err, ErrPrimaryClosed) {
		t.Fatalf("stream on closed primary: %v", err)
	}
}
