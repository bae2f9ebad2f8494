package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Create(vfs.Default, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%37))))
		want = append(want, p)
		if err := w.AddRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	complete, err := Replay(vfs.Default, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Error("clean log reported incomplete")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord([]byte("complete-record"))
	w.AddRecord([]byte("this-one-will-be-torn"))
	end := w.Size()
	w.Close()
	// The file ends in zero fill, so tear the second record by zeroing
	// its last bytes, as a write that never finished leaves it.
	data, _ := os.ReadFile(path)
	copy(data[end-5:end], make([]byte, 5))
	os.WriteFile(path, data, 0o644)
	var got int
	complete, err := Replay(vfs.Default, path, func(p []byte) error { got++; return nil })
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if complete {
		t.Error("torn log reported complete")
	}
	if got != 1 {
		t.Errorf("replayed %d records want 1", got)
	}
}

func TestWALMidCorruptionSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord([]byte("first-record-payload"))
	w.AddRecord([]byte("second-record-payload"))
	w.Close()
	data, _ := os.ReadFile(path)
	data[headerLen+2] ^= 0xff // flip a byte inside the first payload
	os.WriteFile(path, data, 0o644)
	_, err := Replay(vfs.Default, path, func(p []byte) error { return nil })
	if err != ErrCorrupt {
		t.Errorf("want ErrCorrupt, got %v", err)
	}
}

func TestWALMissingFile(t *testing.T) {
	complete, err := Replay(vfs.Default, filepath.Join(t.TempDir(), "absent"), func([]byte) error { return nil })
	if err != nil {
		t.Errorf("missing file must be a no-op: %v", err)
	}
	if !complete {
		t.Error("missing file reported incomplete")
	}
}

func TestWALSyncOnWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Create(vfs.Default, path, Options{SyncOnWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Record must be on disk even before Close.
	var got int
	if _, err := Replay(vfs.Default, path, func(p []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("synced record not visible: %d", got)
	}
	w.Close()
}

func TestWALEmptyRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord(nil)
	w.AddRecord([]byte("after-empty"))
	w.Close()
	var got [][]byte
	_, _ = Replay(vfs.Default, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if len(got) != 2 || len(got[0]) != 0 || string(got[1]) != "after-empty" {
		t.Errorf("empty-record round trip broken: %q", got)
	}
}

func TestWALSizeTracking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	if w.Size() != 0 {
		t.Error("fresh wal size not 0")
	}
	w.AddRecord(make([]byte, 100))
	if w.Size() != headerLen+100 {
		t.Errorf("Size()=%d want %d", w.Size(), headerLen+100)
	}
	w.Close()
}

// writeMemLog writes payloads to a fresh log on a Mem filesystem and
// returns the file's bytes and the log's logical length.
func writeMemLog(t *testing.T, payloads ...string) ([]byte, int64) {
	t.Helper()
	fs := vfs.NewMem()
	w, err := Create(fs, "x.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.AddRecord([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	size := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(fs, "x.wal")
	if err != nil {
		t.Fatal(err)
	}
	return data, size
}

// replayBytes replays data as a log on a Mem filesystem.
func replayBytes(t *testing.T, data []byte) (got []string, complete bool, err error) {
	t.Helper()
	fs := vfs.NewMem()
	if err := vfs.WriteFile(fs, "x.wal", data); err != nil {
		t.Fatal(err)
	}
	complete, err = Replay(fs, "x.wal", func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, complete, err
}

func TestWALPreallocatedTailComplete(t *testing.T) {
	data, size := writeMemLog(t, "first", "", "third")
	if int64(len(data)) != minChunk || size >= minChunk {
		t.Fatalf("file %d bytes for a %d-byte log, want one %d-byte chunk", len(data), size, minChunk)
	}
	got, complete, err := replayBytes(t, data)
	if err != nil || !complete {
		t.Fatalf("zero-tailed log: complete=%v err=%v", complete, err)
	}
	if len(got) != 3 || got[0] != "first" || got[1] != "" || got[2] != "third" {
		t.Fatalf("replayed %q", got)
	}
}

// TestWALSyncedAppendsKeepFileSize pins the property the preallocation
// exists for: once the file has been extended, synced appends overwrite
// space it already holds, so the fsync persists no size change. The file
// grows again only when a record would cross the zero-filled end, by a
// chunk twice the last.
func TestWALSyncedAppendsKeepFileSize(t *testing.T) {
	fs := vfs.NewMem()
	stats := &iostat.Stats{}
	w, err := Create(fs, "x.wal", Options{SyncOnWrite: true, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fileSize := func() int64 {
		fi, err := fs.Stat("x.wal")
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	rec := make([]byte, 1<<10)
	if err := w.AddRecord(rec); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != minChunk {
		t.Fatalf("first extension: file %d bytes, want %d", got, minChunk)
	}
	for w.Size()+headerLen+int64(len(rec)) <= minChunk {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(); got != minChunk {
			t.Fatalf("synced append at log size %d changed the file size to %d", w.Size(), got)
		}
	}
	if err := w.AddRecord(rec); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != 3*minChunk {
		t.Fatalf("second extension: file %d bytes, want %d", got, 3*minChunk)
	}
	if got := stats.WALPreallocBytes.Load(); got != 3*minChunk {
		t.Errorf("WALPreallocBytes=%d, want %d", got, 3*minChunk)
	}
}

// TestWALLargeWriteAppends: a write of fillBelow or more extends the file
// itself, with no zero fill; the next small write fills ahead again.
func TestWALLargeWriteAppends(t *testing.T) {
	fs := vfs.NewMem()
	stats := &iostat.Stats{}
	w, err := Create(fs, "x.wal", Options{SyncOnWrite: true, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord(make([]byte, fillBelow)); err != nil {
		t.Fatal(err)
	}
	if fi, _ := fs.Stat("x.wal"); fi.Size() != w.Size() || stats.WALPreallocBytes.Load() != 0 {
		t.Fatalf("large write: file %d bytes, log %d, fill %d; want an append with no fill",
			fi.Size(), w.Size(), stats.WALPreallocBytes.Load())
	}
	if err := w.AddRecord([]byte("small")); err != nil {
		t.Fatal(err)
	}
	if fi, _ := fs.Stat("x.wal"); fi.Size() != w.Size()-headerLen-5+minChunk {
		t.Fatalf("small write after a large one: file %d bytes, want a %d-byte chunk past %d",
			fi.Size(), minChunk, w.Size()-headerLen-5)
	}
	w.Close()
	var got int
	if complete, err := Replay(fs, "x.wal", func([]byte) error { got++; return nil }); err != nil || !complete || got != 2 {
		t.Fatalf("replay: %d records complete=%v err=%v", got, complete, err)
	}
}

// oldFormatLog encodes payloads the way builds before the zero fill did:
// the checksum covers the payload alone, and the file ends at the last
// record.
func oldFormatLog(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		var hdr [headerLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum([]byte(p), crcTable))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(p)))
		b = append(append(b, hdr[:]...), p...)
	}
	return b
}

// TestWALOldFormatFailsLoudly: a log from an earlier build is an error
// wherever its first record sits, never a torn tail. A lone record would
// otherwise read as a torn last record, and recovery would silently drop
// a synced write.
func TestWALOldFormatFailsLoudly(t *testing.T) {
	for _, data := range [][]byte{
		oldFormatLog("only-record"),
		oldFormatLog("first", "second"),
		append(oldFormatLog("then-zeros"), make([]byte, 64)...),
	} {
		got, complete, err := replayBytes(t, data)
		if !errors.Is(err, ErrOldFormat) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("old-format log of %d bytes: err=%v, want ErrOldFormat wrapping ErrCorrupt", len(data), err)
		}
		if complete || len(got) != 0 {
			t.Fatalf("old-format log: complete=%v replayed %q", complete, got)
		}
	}
}

func TestWALZeroHeaderThenDataIsTorn(t *testing.T) {
	data, _ := writeMemLog(t, "lost-header", "after-the-hole")
	copy(data[:headerLen], make([]byte, headerLen))
	got, complete, err := replayBytes(t, data)
	if err != nil {
		t.Fatalf("zero header then data must not error: %v", err)
	}
	if complete || len(got) != 0 {
		t.Fatalf("zero header then data: complete=%v replayed %q, want torn and nothing", complete, got)
	}
}

func TestWALTornRecordBeforeZerosIsTorn(t *testing.T) {
	data, size := writeMemLog(t, "kept", "torn-before-the-zeros")
	data[size-1] ^= 0xff
	got, complete, err := replayBytes(t, data)
	if err != nil {
		t.Fatalf("torn record before zeros must not error: %v", err)
	}
	if complete || len(got) != 1 || got[0] != "kept" {
		t.Fatalf("complete=%v replayed %q, want torn after one record", complete, got)
	}
}

// TestWALCrashImagesReplay: a record written into synced zero fill and
// never synced may reach the disk as any prefix of itself. Every such
// image replays without error, keeps the synced record, and reads the
// unsynced one as whole, absent, or torn.
func TestWALCrashImagesReplay(t *testing.T) {
	mem := vfs.NewMem()
	w, err := Create(mem, "x.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.AddRecord([]byte("synced"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.AddRecord(bytes.Repeat([]byte("u"), 300))
	w.Close() // written, not synced
	rng := rand.New(rand.NewSource(3))
	torn := 0
	for i := 0; i < 100; i++ {
		img := mem.CrashImage(rng)
		var got int
		complete, err := Replay(img, "x.wal", func([]byte) error { got++; return nil })
		if err != nil || got < 1 || (got == 2 && !complete) {
			t.Fatalf("image %d: replayed %d complete=%v err=%v", i, got, complete, err)
		}
		if !complete {
			torn++
		}
	}
	if torn == 0 {
		t.Error("100 crash images never tore the unsynced record")
	}
}

// TestWALFailedWritePoisons: once a write fails, the log refuses further
// records rather than appending past a possibly half-written one.
func TestWALFailedWritePoisons(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	w, err := Create(fs, "x.wal", Options{SyncOnWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpWriteAt, N: 1})
	if err := w.AddRecord([]byte("fails")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("failed write: err=%v, want ErrInjected", err)
	}
	if err := w.AddRecord([]byte("after")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("append on a poisoned log: err=%v, want ErrInjected", err)
	}
	if err := w.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("close of a poisoned log: err=%v, want ErrInjected", err)
	}
}

// BenchmarkWALSyncedAppend is the fsync floor of a synced commit: one
// record appended and fsynced per op on the real filesystem. 1 KiB is a
// typical commit group; 16 KiB and 256 KiB sit on either side of
// fillBelow, where the writer stops zero-filling ahead of the log.
func BenchmarkWALSyncedAppend(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			w, err := Create(vfs.Default, filepath.Join(b.TempDir(), "bench.wal"), Options{SyncOnWrite: true})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			rec := make([]byte, size)
			b.SetBytes(int64(len(rec)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.AddRecord(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
