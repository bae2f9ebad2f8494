package core

import (
	"encoding/binary"
	"errors"
	"time"

	"lsmkv/internal/kv"
	"lsmkv/internal/wal"
)

// WAL record encoding: one record per write batch.
//
//	uvarint firstSeq
//	uvarint entry count
//	per entry: kind byte | length-prefixed key | length-prefixed value
//
// Entry i carries sequence number firstSeq+i.

var errBadBatch = errors.New("core: corrupt WAL batch")

type batchEntry struct {
	kind  kv.Kind
	key   []byte
	value []byte
}

// BatchOp is one operation in an atomically committed write batch. Kind
// must be kv.KindSet, kv.KindSetTTL, or kv.KindDelete; Value is ignored
// for deletes. For KindSetTTL the Value must already carry the expiry
// prefix (kv.AppendExpiryValue).
type BatchOp struct {
	Kind  kv.Kind
	Key   []byte
	Value []byte
}

// PutOp builds a set operation.
func PutOp(key, value []byte) BatchOp {
	return BatchOp{Kind: kv.KindSet, Key: key, Value: value}
}

// PutTTLOp builds a set operation whose entry expires at the given unix
// nanosecond timestamp.
func PutTTLOp(key, value []byte, expiryUnixNano int64) BatchOp {
	return BatchOp{Kind: kv.KindSetTTL, Key: key, Value: kv.AppendExpiryValue(nil, expiryUnixNano, value)}
}

// DeleteOp builds a tombstone operation.
func DeleteOp(key []byte) BatchOp {
	return BatchOp{Kind: kv.KindDelete, Key: key}
}

// ApplyBatch applies ops atomically: one WAL record covers the whole
// batch, and when sync is true a single fsync makes every op durable
// before the call returns. This is the group-commit hook the network
// server builds on — coalescing N concurrent writers into one ApplyBatch
// call pays one log append and one fsync instead of N.
//
// Ops are applied in slice order (later ops win on duplicate keys). An
// empty batch is a no-op.
func (db *DB) ApplyBatch(ops []BatchOp, sync bool) error {
	if len(ops) == 0 {
		return nil
	}
	if db.lat != nil {
		start := time.Now()
		defer func() { db.lat.Batch.Observe(time.Since(start)) }()
	}
	entries, logical, err := db.prepareBatch(ops, sync)
	if err != nil {
		return err
	}
	db.commitMu.Lock()
	err = db.commitLocked(entries, logical, sync)
	db.commitMu.Unlock()
	if err == nil {
		db.opts.Stats.BatchCommits.Add(1)
		db.opts.Stats.BatchedOps.Add(int64(len(entries)))
	}
	return err
}

// prepareBatch validates ops and converts them to the entries the WAL and
// memtable store. Key-value separation happens here, before any engine
// lock: separated values are appended to the value log and replaced by
// pointers, and one vlog sync covers them all when the commit will be
// synced. logical is the batch as the caller wrote it, for the commit
// hook, and is nil when it equals entries.
func (db *DB) prepareBatch(ops []BatchOp, sync bool) (entries, logical []batchEntry, err error) {
	entries = make([]batchEntry, len(ops))
	for i, op := range ops {
		if len(op.Key) == 0 {
			return nil, nil, errors.New("lsmkv: empty key")
		}
		switch op.Kind {
		case kv.KindSet:
			entries[i] = batchEntry{kind: kv.KindSet, key: op.Key, value: op.Value}
		case kv.KindSetTTL:
			// The value already carries its expiry prefix; TTL entries are
			// never vlog-separated (the separation gate below tests KindSet).
			if len(op.Value) < kv.ExpiryLen {
				return nil, nil, errors.New("lsmkv: ttl op value missing expiry prefix")
			}
			entries[i] = batchEntry{kind: kv.KindSetTTL, key: op.Key, value: op.Value}
		case kv.KindDelete:
			entries[i] = batchEntry{kind: kv.KindDelete, key: op.Key}
		default:
			return nil, nil, errors.New("lsmkv: batch op kind must be set, setttl, or delete")
		}
	}
	if db.vlog == nil {
		return entries, nil, nil
	}
	for i := range entries {
		e := &entries[i]
		if e.kind != kv.KindSet || len(e.value) < db.opts.ValueThreshold {
			continue
		}
		if logical == nil {
			// Followers cannot resolve vlog pointers, so the replication
			// stream keeps the caller's values.
			logical = append([]batchEntry(nil), entries...)
		}
		ptr, err := db.vlog.Append(e.key, e.value)
		if err != nil {
			return nil, nil, err
		}
		e.kind = kv.KindValuePointer
		e.value = ptr.Encode()
	}
	// Under a synced commit the write is acknowledged as durable, so the
	// separated values its WAL record points into must be durable too.
	if logical != nil && (sync || db.opts.WALSync) {
		if err := db.vlog.Sync(); err != nil {
			return nil, nil, err
		}
	}
	return entries, logical, nil
}

// commitLocked commits one batch of engine-sequenced entries in three
// phases, the split LevelDB's DBImpl::Write makes:
//
//  1. Reserve, under db.mu: backpressure, the closed/background-error
//     check, the batch's seqs and the current WAL.
//  2. Log, under commitMu alone: encode, append and (when asked) fsync.
//     Reads never wait on this phase.
//  3. Publish, under db.mu: commit hook, memtable insert, then db.seq.
//
// db.seq moves only in phase 3, after the insert, so a snapshot never
// covers an unpublished write, and a write is never visible before its
// sync returns. A failed append or sync still consumes its seqs: the
// record may yet reach the log, and no later write may reuse them.
// Caller holds db.commitMu.
func (db *DB) commitLocked(entries, logical []batchEntry, sync bool) error {
	db.mu.Lock()
	if err := db.waitWriteLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	first := db.seq + 1
	last := db.seq + kv.SeqNum(len(entries))
	w := db.wal
	db.mu.Unlock()

	var rec []byte
	if w != nil {
		rec = encodeBatch(first, entries)
		if err := db.logRecord(w, rec, sync); err != nil {
			db.mu.Lock()
			db.seq = last
			db.mu.Unlock()
			return err
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.commitHook != nil {
		payload := rec
		if logical != nil || rec == nil {
			if logical == nil {
				logical = entries
			}
			payload = encodeBatch(first, logical)
		}
		db.commitHook(uint64(first), len(entries), payload)
	}
	var nbytes int64
	for i, e := range entries {
		db.mem.Add(kv.Entry{Key: kv.MakeInternalKey(e.key, first+kv.SeqNum(i), e.kind), Value: e.value})
		nbytes += int64(len(e.key) + len(e.value))
	}
	db.opts.Stats.BytesWritten.Add(nbytes)
	db.opts.Stats.WriteOps.Add(int64(len(entries)))
	return db.publishLocked(last)
}

// logRecord appends rec to w and, when sync is asked for and the log does
// not already sync every record, fsyncs it. Caller holds db.commitMu,
// which makes it the log's only user.
func (db *DB) logRecord(w *wal.Writer, rec []byte, sync bool) error {
	if err := w.AddRecord(rec); err != nil {
		return err
	}
	db.opts.Stats.WALRecords.Add(1)
	if db.opts.WALSync {
		db.opts.Stats.WALSyncs.Add(1) // AddRecord synced internally
	} else if sync {
		if err := w.Sync(); err != nil {
			return err
		}
		db.opts.Stats.WALSyncs.Add(1)
	}
	return nil
}

// publishLocked advances db.seq to last once the batch is in the
// memtable, wakes WaitForSeq callers, and freezes a full memtable.
// Caller holds db.commitMu and db.mu.
func (db *DB) publishLocked(last kv.SeqNum) error {
	db.seq = last
	db.notifySeqLocked()
	if db.mem.ApproxSize() >= db.opts.MemtableBytes {
		return db.freezeMemLocked()
	}
	return nil
}

func encodeBatch(firstSeq kv.SeqNum, entries []batchEntry) []byte {
	out := binary.AppendUvarint(nil, uint64(firstSeq))
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = append(out, byte(e.kind))
		out = kv.AppendLengthPrefixed(out, e.key)
		out = kv.AppendLengthPrefixed(out, e.value)
	}
	return out
}

func decodeBatch(data []byte, fn func(seq kv.SeqNum, kind kv.Kind, key, value []byte) error) error {
	firstSeq, w := binary.Uvarint(data)
	if w <= 0 {
		return errBadBatch
	}
	data = data[w:]
	count, w := binary.Uvarint(data)
	if w <= 0 {
		return errBadBatch
	}
	data = data[w:]
	for i := uint64(0); i < count; i++ {
		if len(data) < 1 {
			return errBadBatch
		}
		kind := kv.Kind(data[0])
		data = data[1:]
		var key, value []byte
		var ok bool
		key, data, ok = kv.DecodeLengthPrefixed(data)
		if !ok {
			return errBadBatch
		}
		value, data, ok = kv.DecodeLengthPrefixed(data)
		if !ok {
			return errBadBatch
		}
		if err := fn(kv.SeqNum(firstSeq)+kv.SeqNum(i), kind, key, value); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return errBadBatch
	}
	return nil
}
