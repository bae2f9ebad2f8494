// Package replica implements primary/follower replication over the
// engine's WAL: the primary retains its commit stream in bounded
// per-shard backlogs and ships CRC-framed logical WAL records to
// followers, which apply them through the same WAL + memtable path crash
// recovery uses, preserving original sequence numbers. A follower
// bootstraps from an online checkpoint (internal/checkpoint), then
// streams from its recovered watermark; reads on the follower get
// read-your-writes semantics by waiting on sequence numbers
// (core.WaitForSeq). Merkle trees over the logical keyspace
// (merkle.go) make divergence detection cheap.
//
// The transport is the internal/wire protocol: a REPLSYNC request
// carries the follower's per-shard watermark vector, and the server
// answers with an open-ended stream of REPLFRAME responses on the same
// request ID (see frame.go for frame bodies). The follower encodes and
// decodes those frames with internal/wire, the same code the server
// and client use.
package replica

// Target is the engine surface a follower applies records to; *lsmkv.DB
// satisfies it.
type Target interface {
	// NumShards returns the engine's shard count.
	NumShards() int
	// LastSeqs returns the per-shard applied watermarks.
	LastSeqs() []uint64
	// ApplyReplicated applies one logical WAL record to a shard,
	// preserving its sequence numbers; idempotent at or below the
	// watermark.
	ApplyReplicated(shard int, payload []byte) (uint64, error)
}
