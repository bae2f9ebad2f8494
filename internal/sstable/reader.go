package sstable

import (
	"bytes"
	"encoding/binary"
	"io"
	"sort"

	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/learned"
	"lsmkv/internal/rangefilter"
)

// BlockCache is the read path's block cache hook. Implementations must be
// safe for concurrent use. The sstable reader keys blocks by (file number,
// block offset).
type BlockCache interface {
	// Get returns the cached block bytes, if resident.
	Get(fileNum, offset uint64) ([]byte, bool)
	// Insert adds block bytes (already decoded from storage) to the cache.
	Insert(fileNum, offset uint64, block []byte)
	// EvictFile drops every cached block of the file (after compaction
	// deletes it).
	EvictFile(fileNum uint64)
}

// ReaderOptions configures the read path of one table.
type ReaderOptions struct {
	// FileNum identifies the table in the block cache keyspace.
	FileNum uint64
	// Cache is the shared block cache; nil disables caching.
	Cache BlockCache
	// Stats receives I/O accounting; nil disables accounting.
	Stats *iostat.Stats
	// UseLearnedIndex consults the table's learned model (when present)
	// instead of pure binary search over fences.
	UseLearnedIndex bool
	// UseBlockHashIndex uses per-block hash indexes for point lookups
	// (when the table was written with them).
	UseBlockHashIndex bool
}

// Reader provides random and sequential access to one immutable table.
type Reader struct {
	f    io.ReaderAt
	size int64
	opts ReaderOptions

	index      *fence.Index
	filter     filter.Reader   // table-wide filter (nil when partitioned/none)
	partitions []filter.Reader // per-block filters (partitioned mode)
	rf         rangefilter.Reader
	model      learned.Model // nil when absent/disabled
	props      Properties
}

// OpenReader parses the footer and loads the auxiliary blocks (index,
// filters, model, properties) into memory, mirroring how LSM engines pin
// these structures outside the block cache.
func OpenReader(f io.ReaderAt, size int64, opts ReaderOptions) (*Reader, error) {
	if size < footerLen {
		return nil, ErrCorruptTable
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[81:]) != tableMagic {
		return nil, ErrCorruptTable
	}
	readHandle := func(off int) fence.BlockHandle {
		return fence.BlockHandle{
			Offset: binary.LittleEndian.Uint64(footer[off:]),
			Length: binary.LittleEndian.Uint64(footer[off+8:]),
		}
	}
	indexH, filterH, rfH, learnedH, propsH :=
		readHandle(0), readHandle(16), readHandle(32), readHandle(48), readHandle(64)
	flags := footer[80]

	r := &Reader{f: f, size: size, opts: opts}
	readRaw := func(h fence.BlockHandle) ([]byte, error) {
		if h.Length == 0 {
			return nil, nil
		}
		if h.Offset+h.Length > uint64(size) {
			return nil, ErrCorruptTable
		}
		buf := make([]byte, h.Length)
		if _, err := f.ReadAt(buf, int64(h.Offset)); err != nil {
			return nil, err
		}
		return buf, nil
	}

	indexData, err := readRaw(indexH)
	if err != nil {
		return nil, err
	}
	if r.index, err = fence.Decode(indexData); err != nil {
		return nil, err
	}

	filterData, err := readRaw(filterH)
	if err != nil {
		return nil, err
	}
	if flags&flagPartFil != 0 && len(filterData) > 0 {
		n, w := binary.Uvarint(filterData)
		if w <= 0 {
			return nil, ErrCorruptTable
		}
		rest := filterData[w:]
		// Untrusted count: bound the allocation hint by the bytes left.
		capHint := n
		if max := uint64(len(rest)) + 1; capHint > max {
			capHint = max
		}
		r.partitions = make([]filter.Reader, 0, capHint)
		for i := uint64(0); i < n; i++ {
			var part []byte
			var ok bool
			part, rest, ok = kv.DecodeLengthPrefixed(rest)
			if !ok {
				return nil, ErrCorruptTable
			}
			fr, err := filter.NewReader(part)
			if err != nil {
				return nil, err
			}
			r.partitions = append(r.partitions, fr)
		}
		if len(r.partitions) != r.index.Len() {
			return nil, ErrCorruptTable
		}
	} else if len(filterData) > 0 {
		if r.filter, err = filter.NewReader(filterData); err != nil {
			return nil, err
		}
	}

	rfData, err := readRaw(rfH)
	if err != nil {
		return nil, err
	}
	if r.rf, err = rangefilter.NewReader(rfData); err != nil {
		return nil, err
	}

	if opts.UseLearnedIndex {
		learnedData, err := readRaw(learnedH)
		if err != nil {
			return nil, err
		}
		switch LearnedKind(flags >> 2 & 0x3) {
		case LearnedPLR:
			if len(learnedData) > 0 {
				if r.model, err = learned.DecodePLR(learnedData); err != nil {
					return nil, err
				}
			}
		case LearnedRadixSpline:
			if len(learnedData) > 0 {
				if r.model, err = learned.DecodeRadixSpline(learnedData); err != nil {
					return nil, err
				}
			}
		}
	}

	propsData, err := readRaw(propsH)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(propsData); err != nil {
		return nil, err
	}
	return r, nil
}

// Properties returns the table's summary metadata.
func (r *Reader) Properties() Properties { return r.props }

// FilterMemory returns the resident bytes of the table's point filter(s)
// alone — the quantity Monkey's allocation distributes across levels.
func (r *Reader) FilterMemory() int {
	total := 0
	if r.filter != nil {
		total += r.filter.ApproxMemory()
	}
	for _, p := range r.partitions {
		total += p.ApproxMemory()
	}
	return total
}

// ApproxIndexMemory returns the resident bytes of pinned per-table
// structures (fences, filters, model).
func (r *Reader) ApproxIndexMemory() int {
	total := r.index.ApproxMemory()
	if r.filter != nil {
		total += r.filter.ApproxMemory()
	}
	for _, p := range r.partitions {
		total += p.ApproxMemory()
	}
	if r.rf != nil {
		total += r.rf.ApproxMemory()
	}
	if r.model != nil {
		total += r.model.ApproxMemory()
	}
	return total
}

// readBlock fetches and decodes the data block behind handle h, consulting
// the block cache first. rt, when non-nil, receives per-lookup cache and
// read accounting for the read-path trace.
func (r *Reader) readBlock(h fence.BlockHandle, rt *iostat.RunTrace) (*block, error) {
	var raw []byte
	if c := r.opts.Cache; c != nil {
		if cached, ok := c.Get(r.opts.FileNum, h.Offset); ok {
			if r.opts.Stats != nil {
				r.opts.Stats.BlockCacheHits.Add(1)
			}
			if rt != nil {
				rt.CacheHits++
			}
			blk := &block{}
			if err := decodeBlockInto(blk, cached); err != nil {
				return nil, err
			}
			return blk, nil
		}
		if r.opts.Stats != nil {
			r.opts.Stats.BlockCacheMisses.Add(1)
		}
		if rt != nil {
			rt.CacheMisses++
		}
	}
	raw = make([]byte, h.Length)
	if _, err := r.f.ReadAt(raw, int64(h.Offset)); err != nil {
		return nil, err
	}
	if r.opts.Stats != nil {
		r.opts.Stats.BlockReads.Add(1)
		r.opts.Stats.BytesRead.Add(int64(h.Length))
	}
	if rt != nil {
		rt.BlockReads++
	}
	blk, err := decodeBlock(raw)
	if err != nil {
		return nil, err
	}
	if c := r.opts.Cache; c != nil {
		c.Insert(r.opts.FileNum, h.Offset, raw)
	}
	return blk, nil
}

// PrefetchBlock loads the block at ordinal i into the cache without
// surfacing it (Leaper-style compaction-aware warming).
func (r *Reader) PrefetchBlock(i int) error {
	if i < 0 || i >= r.index.Len() {
		return nil
	}
	_, err := r.readBlock(r.index.Entry(i).Handle, nil)
	return err
}

// NumBlocks returns the number of data blocks.
func (r *Reader) NumBlocks() int { return r.index.Len() }

// BlockFirstKey returns the first user key of block i, or nil when out of
// range. The compaction-aware prefetcher uses it to translate hot block
// offsets into hot key ranges.
func (r *Reader) BlockFirstKey(i int) []byte {
	if i < 0 || i >= r.index.Len() {
		return nil
	}
	return r.index.Entry(i).FirstKey
}

// BlockOrdinalForOffset maps a block's file offset back to its ordinal,
// or -1 when no block starts at that offset.
func (r *Reader) BlockOrdinalForOffset(offset uint64) int {
	for i := 0; i < r.index.Len(); i++ {
		if r.index.Entry(i).Handle.Offset == offset {
			return i
		}
	}
	return -1
}

// PrefetchKey loads into the cache the block that would serve a lookup of
// userKey.
func (r *Reader) PrefetchKey(userKey []byte) error {
	return r.PrefetchBlock(r.findStartBlock(userKey))
}

// findStartBlock returns the ordinal of the first block that can contain
// entries with user key >= userKey, for both lookups and scans. The block
// *before* the first fence >= userKey may hold newer versions of userKey,
// so scanning starts there.
func (r *Reader) findStartBlock(userKey []byte) int {
	n := r.index.Len()
	var i int
	if r.model != nil && n > 0 {
		x := learned.KeyToUint64(userKey)
		_, lo, hi := r.model.Predict(x)
		lo, hi = maxInt(0, minInt(lo, n-1)), maxInt(0, minInt(hi, n-1))
		// The model predicts block ordinals, but its error bound only
		// covers trained fence keys; verify the search landed strictly
		// inside the window (then sortedness makes it globally correct)
		// and widen geometrically otherwise.
		step := hi - lo + 1
		for {
			i = lo + sort.Search(hi-lo+1, func(j int) bool {
				return bytes.Compare(r.index.Entry(lo+j).FirstKey, userKey) >= 0
			})
			if i == lo && lo > 0 {
				lo = maxInt(0, lo-step)
				step *= 2
				continue
			}
			if i == hi+1 && hi < n-1 {
				hi = minInt(n-1, hi+step)
				step *= 2
				continue
			}
			break
		}
	} else {
		i = sort.Search(n, func(j int) bool {
			return bytes.Compare(r.index.Entry(j).FirstKey, userKey) >= 0
		})
	}
	if i > 0 {
		i--
	}
	return i
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MayContain consults the table's point filter without touching storage.
// It returns true when the table must be probed.
func (r *Reader) MayContain(kh filter.KeyHash) bool {
	return r.MayContainTraced(kh, nil)
}

// MayContainTraced is MayContain with the filter verdict recorded into rt
// (when non-nil) for the read-path trace.
func (r *Reader) MayContainTraced(kh filter.KeyHash, rt *iostat.RunTrace) bool {
	if r.filter == nil {
		if rt != nil {
			rt.Filter = iostat.FilterNone
		}
		return true
	}
	if r.opts.Stats != nil {
		r.opts.Stats.FilterProbes.Add(1)
	}
	if r.filter.MayContainHash(kh) {
		if rt != nil {
			rt.Filter = iostat.FilterMaybe
		}
		return true
	}
	if r.opts.Stats != nil {
		r.opts.Stats.FilterNegatives.Add(1)
	}
	if rt != nil {
		rt.Filter = iostat.FilterNegativeVerdict
	}
	return false
}

// MayContainRange consults the table's range filter.
func (r *Reader) MayContainRange(lo, hi []byte) bool {
	if r.rf == nil || r.rf.Kind() == rangefilter.KindNone {
		return true
	}
	if r.opts.Stats != nil {
		r.opts.Stats.RangeFilterProbes.Add(1)
	}
	if r.rf.MayContainRange(lo, hi) {
		return true
	}
	if r.opts.Stats != nil {
		r.opts.Stats.RangeFilterNegatives.Add(1)
	}
	return false
}

// Get returns the newest version of userKey visible at snapshot seq.
// found=false means the table holds no visible version. The caller is
// expected to have consulted MayContain first (the engine screens runs
// with the shared key hash); Get itself applies partitioned filters.
func (r *Reader) Get(userKey []byte, kh filter.KeyHash, seq kv.SeqNum) (value []byte, kind kv.Kind, found bool, err error) {
	return r.GetTraced(userKey, kh, seq, nil)
}

// GetTraced is Get with the block-level work recorded into rt (when
// non-nil): the fence/learned landing block, per-block partitioned filter
// verdicts, and cache/read accounting. A nil rt makes it identical to Get.
// Both delegate to GetAppend (see scratch.go), which recycles the decode
// scratch and appends into a caller-supplied buffer.
func (r *Reader) GetTraced(userKey []byte, kh filter.KeyHash, seq kv.SeqNum, rt *iostat.RunTrace) (value []byte, kind kv.Kind, found bool, err error) {
	return r.GetAppend(userKey, kh, seq, nil, rt)
}

// NewIterator returns an iterator over the whole table.
func (r *Reader) NewIterator() kv.Iterator {
	return &tableIter{r: r, blockOrd: -1}
}

// tableIter is the two-level iterator: fence index on top, block iterator
// below.
type tableIter struct {
	r        *Reader
	blockOrd int
	bi       *blockIter
	err      error
}

var _ kv.Iterator = (*tableIter)(nil)

func (ti *tableIter) loadBlock(ord int) bool {
	if ord < 0 || ord >= ti.r.index.Len() {
		ti.bi = nil
		return false
	}
	blk, err := ti.r.readBlock(ti.r.index.Entry(ord).Handle, nil)
	if err != nil {
		ti.err = err
		ti.bi = nil
		return false
	}
	ti.blockOrd = ord
	ti.bi = newBlockIter(blk)
	return true
}

func (ti *tableIter) First() bool {
	if !ti.loadBlock(0) {
		return false
	}
	if ti.bi.First() {
		return true
	}
	return ti.advanceBlock()
}

func (ti *tableIter) advanceBlock() bool {
	for {
		if !ti.loadBlock(ti.blockOrd + 1) {
			return false
		}
		if ti.bi.First() {
			return true
		}
	}
}

func (ti *tableIter) SeekGE(target kv.InternalKey) bool {
	start := ti.r.findStartBlock(target.UserKey)
	if !ti.loadBlock(start) {
		return false
	}
	if ti.bi.SeekGE(target) {
		return true
	}
	if ti.bi.Error() != nil {
		ti.err = ti.bi.Error()
		return false
	}
	return ti.advanceBlock()
}

func (ti *tableIter) Next() bool {
	if ti.bi == nil {
		return false
	}
	if ti.bi.Next() {
		return true
	}
	if ti.bi.Error() != nil {
		ti.err = ti.bi.Error()
		return false
	}
	return ti.advanceBlock()
}

func (ti *tableIter) Valid() bool { return ti.bi != nil && ti.bi.Valid() }

func (ti *tableIter) Key() kv.InternalKey { return ti.bi.Key() }

func (ti *tableIter) Value() []byte { return ti.bi.Value() }

func (ti *tableIter) Error() error {
	if ti.err != nil {
		return ti.err
	}
	if ti.bi != nil {
		return ti.bi.Error()
	}
	return nil
}

func (ti *tableIter) Close() error {
	ti.bi = nil
	return ti.Error()
}
