package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lsmkv/internal/kv"
	"lsmkv/internal/vfs"
)

// TestCommitPublishOrder races snapshots against a writer. Each write
// takes one seq, so a snapshot at seq s must see the write that took s,
// and both halves of every batch or neither: db.seq advances only after
// the memtable insert, as one step per commit.
func TestCommitPublishOrder(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	base := kv.SeqNum(db.LastSeq())
	const n = 2000

	writerDone := make(chan struct{})
	defer func() { <-writerDone }() // before Close, also when a check fails
	go func() {
		defer close(writerDone)
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Error(err)
				return
			}
			v := []byte(fmt.Sprint(i))
			if err := db.ApplyBatch([]BatchOp{PutOp([]byte("a"), v), PutOp([]byte("b"), v)}, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true // one last check after the final commit
		default:
		}
		snap := db.NewSnapshot()
		// Seqs alternate: Put(key(i)) takes base+3i+1, its batch the
		// next two.
		if off := snap.Seq() - base; off > 0 {
			i := int((off - 1) / 3)
			if _, err := snap.Get(key(i)); err != nil {
				t.Fatalf("snapshot at seq %d misses key %d written at or below it: %v", snap.Seq(), i, err)
			}
			a, errA := snap.Get([]byte("a"))
			b, errB := snap.Get([]byte("b"))
			if !errors.Is(errA, errB) || !bytes.Equal(a, b) {
				t.Fatalf("snapshot at seq %d splits a batch: a=%q (%v) b=%q (%v)", snap.Seq(), a, errA, b, errB)
			}
		}
		snap.Release()
	}
}

// TestCommitFailedSyncConsumesSeqs fails one WAL fsync. The batch is not
// acknowledged and not visible, yet its seqs stay consumed: the record
// may still be in the log, so no later write may reuse them.
func TestCommitFailedSyncConsumesSeqs(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	opts := smallOpts("db")
	opts.FS = fs
	db := openDB(t, opts)
	defer db.Close()
	if err := db.Put(key(0), val(0)); err != nil {
		t.Fatal(err)
	}
	before := db.LastSeq()

	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".wal"})
	err := db.ApplyBatch([]BatchOp{PutOp(key(1), val(1)), PutOp(key(2), val(2))}, true)
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("ApplyBatch with a failing sync = %v, want the injected fault", err)
	}
	if got := db.LastSeq(); got != before+2 {
		t.Fatalf("LastSeq after failed sync = %d, want %d (seqs consumed)", got, before+2)
	}
	if _, err := db.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unacknowledged write visible: %v", err)
	}

	if err := db.Put(key(3), val(3)); err != nil {
		t.Fatal(err)
	}
	if got := db.LastSeq(); got != before+3 {
		t.Fatalf("LastSeq after next write = %d, want %d", got, before+3)
	}
	if v, err := db.Get(key(3)); err != nil || !bytes.Equal(v, val(3)) {
		t.Fatalf("Get after recovery from the failed sync = %q, %v", v, err)
	}
}

// TestReplicatedFailedAppendKeepsWatermark fails one follower WAL sync.
// Replicated seqs belong to the primary, so the watermark must stay put
// and the redelivered record must apply.
func TestReplicatedFailedAppendKeepsWatermark(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	opts := smallOpts("follower")
	opts.FS = fs
	opts.WALSync = true // every append syncs
	db := openDB(t, opts)
	defer db.Close()

	payload := encodeBatch(1, []batchEntry{{kind: kv.KindSet, key: key(1), value: val(1)}})
	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".wal"})
	if _, err := db.ApplyReplicated(payload); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("ApplyReplicated with a failing append = %v, want the injected fault", err)
	}
	if got := db.LastSeq(); got != 0 {
		t.Fatalf("watermark after failed append = %d, want 0", got)
	}
	if got, err := db.ApplyReplicated(payload); err != nil || got != 1 {
		t.Fatalf("redelivery = %d, %v; want 1, nil", got, err)
	}
	if v, err := db.Get(key(1)); err != nil || !bytes.Equal(v, val(1)) {
		t.Fatalf("Get after redelivery = %q, %v", v, err)
	}
}
