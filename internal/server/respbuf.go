// Pooled response buffers: every response a connection queues is encoded
// into a buffer borrowed from a process-wide sync.Pool and returned by
// the write loop once the frame is on the wire (or the connection is
// known dead). In steady state the serving layer re-encodes responses
// into the same handful of buffers instead of allocating one per
// response — the wire-side half of the zero-allocation read path.

package server

import (
	"sync"
	"sync/atomic"
)

// respBufMaxRetain caps the capacity the pool keeps. A response that had
// to grow past it (a big scan page, a huge STATS body) is let go to the
// GC instead of pinning that much memory in the pool forever.
const respBufMaxRetain = 1 << 20

// respBuf is one pooled response payload. The struct (not the slice) is
// what cycles through the pool, so recycling never allocates.
type respBuf struct {
	b []byte
}

// Pool telemetry, surfaced in /metrics: allocs counts pool misses (a
// fresh buffer had to be made), drops counts oversized buffers released
// to the GC. Near-zero growth of both under load means the response path
// is allocation-free.
var (
	respBufAllocs atomic.Int64
	respBufDrops  atomic.Int64
)

var respBufPool sync.Pool

func getRespBuf() *respBuf {
	if rb, ok := respBufPool.Get().(*respBuf); ok {
		rb.b = rb.b[:0]
		return rb
	}
	respBufAllocs.Add(1)
	return &respBuf{}
}

func putRespBuf(rb *respBuf) {
	if cap(rb.b) > respBufMaxRetain {
		respBufDrops.Add(1)
		return
	}
	rb.b = rb.b[:0]
	respBufPool.Put(rb)
}
