// Package wal implements the write-ahead log that makes buffered writes
// durable before they reach the memtable: CRC-framed, length-prefixed
// records written to a log file, replayed at open to rebuild the buffer
// the tutorial's flush path assumes.
//
// The file is kept ahead of the log: before a small write would cross
// the end of the file, the writer extends it by a chunk of zeros, and
// records are then written positionally into that space. A steady-state
// commit fsync therefore overwrites bytes the file already holds and
// persists no size change, which on journaling filesystems (ext4) skips
// the inode journal commit that otherwise dominates a small synced write.
// Writes of fillBelow bytes or more append without fill. Replay
// stops at the first all-zero header: a record's checksum covers its
// length field, so no valid header is all zeros.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

// ErrCorrupt indicates a record failed its checksum; replay stops at the
// previous record (standard torn-write handling).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrOldFormat reports a record written by a build whose checksum covered
// the payload alone. It wraps ErrCorrupt: such a log is never read as a
// torn tail, so an upgrade fails loudly instead of dropping synced writes.
var ErrOldFormat = fmt.Errorf("%w: written by an earlier build whose checksum excludes the length; open the store once with that build to drain it", ErrCorrupt)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	headerLen = 8 // crc32 of length+payload (4) + payload length (4)

	// The file grows in zero-filled chunks that start at minChunk and
	// double up to maxChunk, so a short-lived log stays small while a
	// long one extends (and journals a size change) once per MiB.
	minChunk = 64 << 10
	maxChunk = 1 << 20

	// fillBelow is the write size below which zero fill pays. Every
	// filled byte reaches the disk twice, zeros first, so a large write's
	// fsync costs more in bandwidth than the size-change journal commit
	// it saves; such writes append instead. BenchmarkWALSyncedAppend
	// shows the fill ahead at 16 KiB and not needed at 256 KiB; where the
	// costs cross in between is not measured, and 32 KiB was picked
	// inside that gap.
	fillBelow = 32 << 10

	// bufSize is how many bytes of unsynced records are held before they
	// are written out. The buffer keeps the capacity of the largest
	// record for the log's life: reallocating it per record costs a big
	// synced batch more than its zero fill would.
	bufSize = 64 << 10
)

// zeros is the source of the zero fill and the reference replay compares
// the tail against.
var zeros [minChunk]byte

// Writer appends records to a log file.
type Writer struct {
	f      vfs.File
	buf    []byte // records appended but not yet written to f
	offset int64  // logical length: bytes of records appended so far
	filled int64  // file length: records plus the zero fill after them
	chunk  int64  // size of the next extension
	sync   bool
	stats  *iostat.Stats
	// err is the first write failure. It poisons the log: a record may
	// be half-written, and appending past it would corrupt the tail.
	err error
}

// Options configures a log writer.
type Options struct {
	// SyncOnWrite fsyncs after every record — full durability at the cost
	// of write latency. Off, the OS page cache absorbs writes.
	SyncOnWrite bool
	// Stats, when non-nil, receives the zero-fill volume
	// (WALPreallocBytes).
	Stats *iostat.Stats
}

// Create creates (truncating) a log file at path on fs.
func Create(fs vfs.FS, path string, opts Options) (*Writer, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, chunk: minChunk, sync: opts.SyncOnWrite, stats: opts.Stats}, nil
}

// checksum is the record checksum: crc32c over the little-endian length
// field followed by the payload.
func checksum(length []byte, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, crcTable), crcTable, payload)
}

// AddRecord appends one record.
func (w *Writer) AddRecord(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[0:], checksum(hdr[4:], payload))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.offset += int64(headerLen + len(payload))
	if w.sync {
		return w.Sync()
	}
	if len(w.buf) >= bufSize {
		return w.flush()
	}
	return nil
}

// flush writes the buffered records at their offset. When a small write
// would run past the end of the file, the file is zero-filled ahead of it
// first; a large one extends the file itself.
func (w *Writer) flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	for len(w.buf) < fillBelow && w.filled < w.offset {
		if err := w.extend(); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.f.WriteAt(w.buf, w.offset-int64(len(w.buf))); err != nil {
		w.err = err
		return err
	}
	w.filled = max(w.filled, w.offset)
	w.buf = w.buf[:0]
	return nil
}

// extend appends one chunk of zeros to the file.
func (w *Writer) extend() error {
	for n := int64(0); n < w.chunk; n += minChunk {
		if _, err := w.f.WriteAt(zeros[:], w.filled+n); err != nil {
			return err
		}
	}
	w.filled += w.chunk
	if w.stats != nil {
		w.stats.WALPreallocBytes.Add(w.chunk)
	}
	w.chunk = min(2*w.chunk, maxChunk)
	return nil
}

// Sync writes buffered records and fsyncs the file.
func (w *Writer) Sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Size returns the bytes logically appended so far (the zero fill
// excluded).
func (w *Writer) Size() int64 { return w.offset }

// Close writes buffered records and closes the log. The zero fill stays:
// replay reads it as the end of the log.
func (w *Writer) Close() error {
	err := w.flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay reads records from the log at path in order, invoking fn for
// each. An all-zero header ends the log; it is complete when only zeros
// follow. A torn or corrupt tail stops replay without error (those
// records were never acknowledged as durable) and reports
// complete=false: a header or payload cut short by the end of the file,
// a checksum failure with only zeros after it, or a zero header with
// anything else after it. A checksum failure followed by anything but
// zeros is corruption in the middle and surfaces as ErrCorrupt, and a
// record in the earlier payload-only checksum format is ErrOldFormat
// wherever it sits. A missing file is not an error and counts as
// complete.
//
// Callers replaying a sequence of logs must stop at the first incomplete
// one: a torn tail marks the crash point, and records in later logs are
// from after it. Replaying past the tear would recover history with a
// hole in the middle (point-in-time recovery, not per-file salvage).
func Replay(fs vfs.FS, path string, fn func(payload []byte) error) (complete bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	off := int64(0)
	for {
		var hdr [headerLen]byte
		n, err := io.ReadFull(br, hdr[:])
		if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			return false, err
		}
		if isZero(hdr[:n]) {
			// End of the records. Anything but zeros after it is a
			// record written past one that never landed.
			return onlyZerosFollow(br)
		}
		if n < headerLen {
			return false, nil // torn header at tail
		}
		off += headerLen
		want := binary.LittleEndian.Uint32(hdr[0:])
		length := binary.LittleEndian.Uint32(hdr[4:])
		// A declared length running past the file is a torn tail; checking
		// before allocating also bounds the allocation by the file size
		// for adversarial input.
		if int64(length) > size-off {
			return false, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return false, nil // torn payload at tail
			}
			return false, err
		}
		off += int64(length)
		if checksum(hdr[4:], payload) != want {
			if crc32.Checksum(payload, crcTable) == want {
				return false, ErrOldFormat
			}
			// Distinguish a torn last record from mid-log corruption: if
			// only zeros follow, nothing was written after it.
			tail, err := onlyZerosFollow(br)
			if err != nil || tail {
				return false, err
			}
			return false, ErrCorrupt
		}
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}

func isZero(b []byte) bool { return bytes.Equal(b, zeros[:len(b)]) }

// onlyZerosFollow reports whether the rest of r is all zeros.
func onlyZerosFollow(r io.Reader) (bool, error) {
	var buf [4 << 10]byte
	for {
		n, err := r.Read(buf[:])
		if !isZero(buf[:n]) {
			return false, nil
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}
