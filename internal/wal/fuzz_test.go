package wal

import (
	"errors"
	"testing"

	"lsmkv/internal/vfs"
)

// FuzzWALReplay feeds arbitrary bytes to the replay path. Whatever the
// input, replay must not panic, must not over-allocate (the record length
// field is attacker-controlled), and must only ever return nil or
// ErrCorrupt — and every payload it delivers must have passed its CRC.
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid log and a few shapes of damage. valid keeps the
	// records and the first tail bytes of the zero fill after them:
	// whole 64 KiB chunks would make every mutation crawl.
	valid := func(tail int64, payloads ...[]byte) []byte {
		fs := vfs.NewMem()
		w, err := Create(fs, "seed.wal", Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range payloads {
			w.AddRecord(p)
		}
		size := w.Size()
		w.Close()
		data, err := vfs.ReadFile(fs, "seed.wal")
		if err != nil {
			f.Fatal(err)
		}
		return data[:size+tail]
	}
	f.Add([]byte{})
	f.Add(valid(0, []byte("hello"), []byte("world")))
	f.Add(valid(0, nil, []byte("after-empty")))
	d := valid(0, []byte("torn-me"))
	f.Add(d[:len(d)-3]) // torn tail
	d = valid(0, []byte("flip-me"), []byte("second"))
	d[headerLen+2] ^= 0xff // mid-log corruption
	f.Add(d)
	// A preallocated log: records, then zero fill.
	f.Add(valid(2<<10, []byte("zero"), []byte("tail")))
	// A hole: a zeroed header with a record after it.
	d = valid(64, []byte("hole"), []byte("after"))
	copy(d[:headerLen], make([]byte, headerLen))
	f.Add(d)
	// A torn last record before the zero fill.
	d = valid(64, []byte("kept"), []byte("torn"))
	d[len(d)-65] ^= 0xff
	f.Add(d)
	// A log from an earlier build: the checksum covers the payload alone.
	f.Add(oldFormatLog("earlier-build"))
	// Huge declared length with no payload behind it.
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "fuzz.wal", data); err != nil {
			t.Fatal(err)
		}
		total := 0
		_, err := Replay(fs, "fuzz.wal", func(p []byte) error {
			total += len(p)
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error class: %v", err)
		}
		// Delivered payloads come from length-prefixed frames of the
		// input, so their total can never exceed the input size.
		if total > len(data) {
			t.Fatalf("delivered %d payload bytes from a %d-byte log", total, len(data))
		}
	})
}
