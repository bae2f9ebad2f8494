package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// Tests of the engine's write path seen through the facade: reads never
// wait on a commit's fsync, maintenance calls wait out a commit in
// flight, and the embedded atomics exclude every other writer.

// gate parks filesystem operations while armed: each parked operation
// signals on parked (one pending signal at most) and waits for open.
type gate struct {
	mu      sync.Mutex
	armed   bool
	parked  chan struct{}
	release chan struct{}
}

func (g *gate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
	g.parked = make(chan struct{}, 1)
	g.release = make(chan struct{})
}

// open lets every parked operation through and disarms the gate.
func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.armed {
		g.armed = false
		close(g.release)
	}
}

func (g *gate) pass() {
	g.mu.Lock()
	armed, parked, release := g.armed, g.parked, g.release
	g.mu.Unlock()
	if armed {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-release
	}
}

// waitParked blocks until an operation parks at the gate.
func (g *gate) waitParked(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	parked := g.parked
	g.mu.Unlock()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no operation reached the gate")
	}
}

// gatedFS passes every operation to FS, except that Create of a path
// ending in createSuffix and Sync of a file whose path ends in
// syncSuffix go through the gate first. An empty suffix matches nothing.
type gatedFS struct {
	vfs.FS
	g            *gate
	createSuffix string
	syncSuffix   string
}

func (fs gatedFS) Create(name string) (vfs.File, error) {
	if fs.createSuffix != "" && strings.HasSuffix(name, fs.createSuffix) {
		fs.g.pass()
	}
	f, err := fs.FS.Create(name)
	if err != nil || fs.syncSuffix == "" || !strings.HasSuffix(name, fs.syncSuffix) {
		return f, err
	}
	return gatedFile{File: f, g: fs.g}, nil
}

type gatedFile struct {
	vfs.File
	g *gate
}

func (f gatedFile) Sync() error {
	f.g.pass()
	return f.File.Sync()
}

// openOnFS opens the facade over an explicit filesystem, which the
// public Options do not expose.
func openOnFS(t *testing.T, dir string, o *Options, fs vfs.FS) *DB {
	t.Helper()
	copts, err := o.toCore(dir)
	if err != nil {
		t.Fatal(err)
	}
	copts.FS = fs
	inner, err := shard.Open(copts, o.Shards)
	if err != nil {
		t.Fatal(err)
	}
	return &DB{inner: inner}
}

// within runs fn in a goroutine and fails the test unless it returns
// inside the deadline.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	select {
	case err := <-start(fn):
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a parked WAL fsync", what)
	}
}

// start runs fn in a goroutine and returns the channel its result
// arrives on.
func start(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

// stillRunning fails the test if any of the started calls has already
// returned: they must be waiting on the parked commit.
func stillRunning(t *testing.T, calls map[string]<-chan error) {
	t.Helper()
	time.Sleep(50 * time.Millisecond)
	for what, done := range calls {
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) while a commit was parked in its WAL fsync", what, err)
		default:
		}
	}
}

func finished(t *testing.T, calls map[string]<-chan error) {
	t.Helper()
	for what, done := range calls {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished after the commit was released", what)
		}
	}
}

func TestReadsDoNotWaitOnWALSync(t *testing.T) {
	g := &gate{}
	fs := gatedFS{FS: vfs.NewMem(), g: g, syncSuffix: ".wal"}
	db := openOnFS(t, "db", Default(), fs)
	closed := false
	defer func() {
		g.open()
		if !closed {
			db.Close()
		}
	}()

	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k9999"), []byte("in-memtable")); err != nil {
		t.Fatal(err)
	}

	g.arm()
	parked := []byte("parked")
	writer := start(func() error { return db.ApplyBatch([]BatchOp{PutOp(parked, []byte("v1"))}, true) })
	g.waitParked(t)

	var snap *Snapshot
	within(t, "Get", func() error {
		if _, err := db.Get([]byte("k0007")); err != nil {
			return err
		}
		if _, err := db.Get(parked); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("parked write visible before its sync returned: %v", err)
		}
		return nil
	})
	within(t, "MultiGet", func() error {
		vals, err := db.MultiGet([][]byte{[]byte("k0001"), []byte("k9999"), parked})
		if err != nil {
			return err
		}
		if vals[0] == nil || vals[1] == nil || vals[2] != nil {
			return fmt.Errorf("MultiGet = %q", vals)
		}
		return nil
	})
	within(t, "Scan", func() error {
		n := 0
		err := db.Scan([]byte("k"), []byte("k~"), func(k, v []byte) bool { n++; return true })
		if err == nil && n != 201 {
			err = fmt.Errorf("scan saw %d keys, want 201", n)
		}
		return err
	})
	within(t, "NewSnapshot", func() error {
		snap = db.NewSnapshot()
		return nil
	})
	defer snap.Release()

	calls := map[string]<-chan error{
		"Flush": start(db.Flush),
		"Checkpoint": start(func() error {
			_, err := db.Checkpoint("ckpt")
			return err
		}),
	}
	stillRunning(t, calls)

	g.open()
	if err := <-writer; err != nil {
		t.Fatalf("parked ApplyBatch: %v", err)
	}
	finished(t, calls)
	if v, err := db.Get(parked); err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("after release Get(parked) = %q, %v", v, err)
	}
	if _, err := snap.Get(parked); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot taken during the sync sees the parked write: %v", err)
	}

	// Close started behind a parked commit waits for it, and the commit
	// is durable across reopen.
	g.arm()
	writer = start(func() error { return db.ApplyBatch([]BatchOp{PutOp(parked, []byte("v2"))}, true) })
	g.waitParked(t)
	calls = map[string]<-chan error{"Close": start(db.Close)}
	stillRunning(t, calls)
	g.open()
	if err := <-writer; err != nil {
		t.Fatalf("parked ApplyBatch before Close: %v", err)
	}
	finished(t, calls)
	closed = true

	db = openOnFS(t, "db", Default(), fs)
	closed = false
	if v, err := db.Get(parked); err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("after reopen Get(parked) = %q, %v", v, err)
	}
}

// TestIncrExcludesPut races Incr against plain Puts of 1e6 on one key.
// An Incr that read before a Put and wrote after it would overwrite the
// acknowledged Put with a small count; with the read and write under
// one commit lock the final counter is at least 1e6.
func TestIncrExcludesPut(t *testing.T) {
	const big = 1_000_000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := Default()
			o.Shards = shards
			db, err := Open(t.TempDir(), o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			bigVal := core.AppendCounter(nil, big)
			for trial := 0; trial < 300; trial++ {
				k := []byte(fmt.Sprintf("ctr%04d", trial))
				var wg sync.WaitGroup
				errs := make(chan error, 2)
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if _, err := db.Incr(k, 1); err != nil {
							errs <- err
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if err := db.Put(k, bigVal); err != nil {
							errs <- err
							return
						}
					}
				}()
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				v, err := db.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if n, ok := core.DecodeCounter(v); !ok || n < big {
					t.Fatalf("trial %d: final counter %d < %d: an acknowledged Put was lost", trial, n, big)
				}
			}
		})
	}
}
