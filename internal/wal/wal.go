// Package wal implements the durable write-ahead update log from
// DESIGN.md §13: an append-only, segmented, CRC-framed log of
// wire-encoded updates (Write/FastWrite/Outcome) plus checkpoint
// markers, with group commit, GVT-floor-based truncation, and torn-tail
// recovery.
//
// Group commit: Append frames a record into an in-memory buffer and
// makes no syscall; Sync hands every record appended since the last
// Sync to the file in one write and then fsyncs it (unless the policy
// is SyncNever). The engine calls Sync once per event-loop batch,
// before any of the batch's messages or commit results leave.
//
// Concurrency contract: the log is SINGLE-WRITER. All mutating calls
// (Append, Mark, Sync, TruncateBelow, Close) and Replay must come from
// one goroutine — in the engine that is the event-loop goroutine, which
// already owns all site state. Because of that the log holds no mutex
// around file I/O, which keeps os.File.Write/Sync out of any lock
// region (enforced repo-wide by the decaf-vet lockedsend analyzer).
// The only cross-goroutine surface is Stats(), which reads atomics.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"decaf/internal/vtime"
)

// Record kinds. A record's payload is opaque to the log; the engine
// stores wire-encoded messages in RecordMessage records and a
// checkpoint sequence number in RecordMark records.
const (
	// RecordMessage frames one wire-encoded protocol message
	// (Write, FastWrite, or Outcome).
	RecordMessage = byte(1)
	// RecordMark is a checkpoint marker: everything before it is
	// captured by the checkpoint with the matching sequence number,
	// so recovery replays only the records after it.
	RecordMark = byte(2)
)

// SyncPolicy selects whether Sync fsyncs what it writes.
type SyncPolicy int

const (
	// SyncBatch fsyncs at every Sync that wrote something; the engine
	// calls Sync once per event-loop batch, amortizing one write and
	// one fsync over every record the batch appended.
	SyncBatch SyncPolicy = iota
	// SyncNever leaves flushing to the OS. Crash recovery still
	// works up to whatever the kernel persisted (the torn tail is
	// detected and truncated); used by the deterministic simulator
	// where the "disk" never outlives the process anyway.
	SyncNever
)

// Record is one framed log entry. Origin/Time carry the transaction
// VT of the framed message so the log can answer floor queries
// ("everything from origin o up to time t") without decoding payloads.
type Record struct {
	Kind    byte
	Origin  vtime.SiteID
	Time    uint64
	Payload []byte
}

// Options tunes a Log. Zero value = 4 MiB segments, SyncBatch.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size. Default 4 MiB.
	SegmentBytes int64
	// Sync selects the fsync policy. Default SyncBatch.
	Sync SyncPolicy
}

const (
	defaultSegmentBytes = 4 << 20
	headerSize          = 8       // per-segment magic
	frameHeader         = 4 + 4   // u32 length + u32 crc32(payload)
	maxRecordBytes      = 1 << 26 // sanity bound on a single record
)

// segMagic begins every segment file: "DCAFWAL" + format version 2.
// The version covers the records' wire-encoded payloads too, so a log
// written with another payload encoding fails to open instead of being
// misread (version 2: composite values as state images).
var segMagic = [headerSize]byte{'D', 'C', 'A', 'F', 'W', 'A', 'L', 2}

type segment struct {
	index   uint64 // from the file name
	path    string
	bytes   int64
	records int64
	maxTime uint64 // max Record.Time in the segment (0 if none)
	marks   int64  // RecordMark records in the segment
}

// Log is a durable append-only record log backed by a directory of
// segment files. See the package comment for the concurrency contract.
type Log struct {
	dir  string
	opts Options

	segments []segment // closed segments + the active one, ascending index
	active   *os.File  // file backing segments[len-1]

	// pending holds the frames appended since the last write, all of
	// them for the active segment; write hands it to the file in one
	// call and reuses its storage.
	pending []byte
	// unsynced is set by a write and cleared by the fsync after it.
	unsynced bool

	lastMarkSeq uint64 // newest checkpoint marker sequence (0 = none)
	markSegIdx  uint64 // segment index holding that marker

	// Gauges readable from any goroutine (obs exports them).
	statRecords atomic.Int64
	statBytes   atomic.Int64
	statSegs    atomic.Int64
	statSyncs   atomic.Int64
	statWrites  atomic.Int64
}

// Stats is a point-in-time snapshot of log gauges. Records and Bytes
// count at Append, buffered records included.
type Stats struct {
	Records  int64
	Bytes    int64
	Segments int64
	Syncs    int64
	// Writes counts the writes that handed buffered records to a
	// segment file; Sync, Replay, Close and a rotation each make one
	// when the buffer is non-empty.
	Writes int64
}

// Open opens (or creates) the log in dir. It scans every segment,
// validating CRC frames. A torn tail — a short or corrupt frame at the
// end of the NEWEST segment, the expected result of a crash mid-append
// — is truncated away. Corruption anywhere else is an error.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if len(l.segments) == 0 {
		if err := l.rotate(1); err != nil {
			return nil, err
		}
	} else {
		// Reopen the newest segment for appending.
		last := &l.segments[len(l.segments)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", last.path, err)
		}
		if _, err := f.Seek(last.bytes, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek %s: %w", last.path, err)
		}
		l.active = f
	}
	l.refreshStats()
	return l, nil
}

func segName(index uint64) string { return fmt.Sprintf("wal-%08d.seg", index) }

// scan reads the segment directory, validates every frame, truncates a
// torn tail on the newest segment, and rebuilds per-segment metadata.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	var segs []segment
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg", &idx); n != 1 {
			continue
		}
		segs = append(segs, segment{index: idx, path: filepath.Join(l.dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for i := range segs {
		final := i == len(segs)-1
		if err := l.scanSegment(&segs[i], final); err != nil {
			return err
		}
	}
	l.segments = segs
	return nil
}

// scanSegment validates seg frame by frame. If final, a bad tail is
// truncated (crash mid-append); otherwise it is corruption.
func (l *Log) scanSegment(seg *segment, final bool) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", seg.path, err)
	}
	if len(data) < headerSize || [headerSize]byte(data[:headerSize]) != segMagic {
		if final && len(data) < headerSize {
			// Crash while writing the header of a fresh segment:
			// nothing in it yet, rewrite the header.
			if err := os.WriteFile(seg.path, segMagic[:], 0o644); err != nil {
				return fmt.Errorf("wal: rewrite header %s: %w", seg.path, err)
			}
			seg.bytes = headerSize
			return nil
		}
		return fmt.Errorf("wal: %s: bad segment magic", seg.path)
	}
	off := int64(headerSize)
	for {
		rec, n, err := parseFrame(data[off:])
		if err == errFrameEOF {
			break
		}
		if err != nil {
			if !final {
				return fmt.Errorf("wal: %s: corrupt record at offset %d: %w", seg.path, off, err)
			}
			// Torn tail: truncate the file back to the last good frame.
			if terr := os.Truncate(seg.path, off); terr != nil {
				return fmt.Errorf("wal: truncate torn tail %s: %w", seg.path, terr)
			}
			break
		}
		seg.records++
		if rec.Time > seg.maxTime {
			seg.maxTime = rec.Time
		}
		if rec.Kind == RecordMark {
			seg.marks++
			seq, _ := binary.Uvarint(rec.Payload)
			if seq >= l.lastMarkSeq {
				l.lastMarkSeq = seq
				l.markSegIdx = seg.index
			}
		}
		off += int64(n)
	}
	seg.bytes = off
	return nil
}

var errFrameEOF = fmt.Errorf("wal: end of segment")

// parseFrame decodes one frame from b. Returns errFrameEOF at a clean
// end (b empty); any other error means a short or corrupt frame.
func parseFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, errFrameEOF
	}
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if size == 0 || size > maxRecordBytes {
		return Record{}, 0, fmt.Errorf("implausible record length %d", size)
	}
	if len(b) < frameHeader+int(size) {
		return Record{}, 0, fmt.Errorf("short record body (%d of %d bytes)", len(b)-frameHeader, size)
	}
	payload := b[frameHeader : frameHeader+int(size)]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, fmt.Errorf("crc mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + int(size), nil
}

// payload layout: kind(1) | origin uvarint | time uvarint | body.
func appendPayload(b []byte, rec Record) []byte {
	b = append(b, rec.Kind)
	b = binary.AppendUvarint(b, uint64(rec.Origin))
	b = binary.AppendUvarint(b, rec.Time)
	return append(b, rec.Payload...)
}

func decodePayload(p []byte) (Record, error) {
	if len(p) < 1 {
		return Record{}, fmt.Errorf("empty payload")
	}
	rec := Record{Kind: p[0]}
	p = p[1:]
	origin, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, fmt.Errorf("bad origin varint")
	}
	p = p[n:]
	t, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, fmt.Errorf("bad time varint")
	}
	rec.Origin = vtime.SiteID(origin)
	rec.Time = t
	rec.Payload = p[n:]
	return rec, nil
}

// rotate writes and fsyncs (per policy) the active segment, closes it
// (if any), and opens a new one with the given index.
func (l *Log) rotate(index uint64) error {
	if l.active != nil {
		if err := l.Sync(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.active = nil
	}
	path := filepath.Join(l.dir, segName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.active = f
	l.segments = append(l.segments, segment{index: index, path: path, bytes: headerSize})
	l.statSegs.Store(int64(len(l.segments)))
	l.statBytes.Add(headerSize)
	return nil
}

// Append frames rec into the pending buffer, rotating first if the
// active segment is full. It makes no syscall (except to rotate) and,
// once the buffer has grown to a batch's size, no allocation: the record
// reaches the file at the next Sync. Segment sizes, marks and Stats
// count it at once.
func (l *Log) Append(rec Record) error {
	if l.active == nil {
		return fmt.Errorf("wal: log closed")
	}
	cur := &l.segments[len(l.segments)-1]
	if cur.bytes >= l.opts.SegmentBytes {
		if err := l.rotate(cur.index + 1); err != nil {
			return err
		}
		cur = &l.segments[len(l.segments)-1]
	}
	start := len(l.pending)
	l.pending = appendPayload(append(l.pending, make([]byte, frameHeader)...), rec)
	frame := l.pending[start:]
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	cur.bytes += int64(len(frame))
	cur.records++
	if rec.Time > cur.maxTime {
		cur.maxTime = rec.Time
	}
	if rec.Kind == RecordMark {
		cur.marks++
		seq, _ := binary.Uvarint(rec.Payload)
		if seq >= l.lastMarkSeq {
			l.lastMarkSeq = seq
			l.markSegIdx = cur.index
		}
	}
	l.statRecords.Add(1)
	l.statBytes.Add(int64(len(frame)))
	return nil
}

// Mark appends a checkpoint marker with the given sequence number and
// syncs it with everything appended before it: a checkpoint must not
// claim coverage the log cannot prove.
func (l *Log) Mark(seq uint64) error {
	var buf [binary.MaxVarintLen64]byte
	if err := l.Append(Record{Kind: RecordMark, Payload: binary.AppendUvarint(buf[:0], seq)}); err != nil {
		return err
	}
	return l.Sync()
}

// MarkSeq extracts the checkpoint sequence number carried by a
// RecordMark. It returns false for non-marker records or a malformed
// payload.
func MarkSeq(rec Record) (uint64, bool) {
	if rec.Kind != RecordMark {
		return 0, false
	}
	seq, n := binary.Uvarint(rec.Payload)
	if n <= 0 {
		return 0, false
	}
	return seq, true
}

// Sync writes the pending records to the active segment in one write
// and, unless the policy is SyncNever, fsyncs them. A Sync with nothing
// written since the last fsync does nothing. The engine calls it once
// per event-loop batch.
func (l *Log) Sync() error {
	if l.active == nil {
		return nil
	}
	if err := l.write(); err != nil {
		return err
	}
	if !l.unsynced || l.opts.Sync == SyncNever {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.unsynced = false
	l.statSyncs.Add(1)
	return nil
}

// write hands the pending frames to the active segment. Bytes a failed
// write left behind stay pending, so the next write resumes where it
// stopped and the file never holds a frame twice.
func (l *Log) write() error {
	if len(l.pending) == 0 {
		return nil
	}
	n, err := l.active.Write(l.pending)
	l.statWrites.Add(1)
	l.unsynced = l.unsynced || n > 0
	l.pending = l.pending[:copy(l.pending, l.pending[n:])]
	if err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// LastMarkSeq returns the newest checkpoint marker sequence in the
// log, or 0 if no marker has been written.
func (l *Log) LastMarkSeq() uint64 { return l.lastMarkSeq }

// Replay streams every record in log order through fn, pending ones
// included: it writes them (without an fsync) first. Replay must not be
// interleaved with Append from another goroutine (single-writer
// contract). Returning a non-nil error from fn stops the replay.
func (l *Log) Replay(fn func(Record) error) error {
	if l.active != nil {
		if err := l.write(); err != nil {
			return err
		}
	}
	for i := range l.segments {
		seg := &l.segments[i]
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		// Bound by the scanned/accounted size: the final segment file
		// is also the active write target.
		if int64(len(data)) > seg.bytes {
			data = data[:seg.bytes]
		}
		off := int64(headerSize)
		for off < int64(len(data)) {
			rec, n, err := parseFrame(data[off:])
			if err != nil {
				return fmt.Errorf("wal: replay %s at offset %d: %w", seg.path, off, err)
			}
			if err := fn(rec); err != nil {
				return err
			}
			off += int64(n)
		}
	}
	return nil
}

// TruncateBelow deletes whole segments whose every record has
// Time < floor — but never the segment holding the newest checkpoint
// marker or anything after it, and never the active segment. This is
// the GVT-floor-based truncation from DESIGN.md §13: once the commit
// floor passes a segment's max VT time and a newer checkpoint covers
// it, the segment can no longer be needed for recovery or anti-entropy
// shipping of undelivered updates.
func (l *Log) TruncateBelow(floor uint64) error {
	if l.active == nil {
		return fmt.Errorf("wal: log closed")
	}
	keep := l.segments[:0]
	removed := false
	for i := range l.segments {
		seg := l.segments[i]
		last := i == len(l.segments)-1
		droppable := !last && seg.maxTime < floor &&
			(l.lastMarkSeq > 0 && seg.index < l.markSegIdx)
		if droppable && !removed {
			// Only drop a clean prefix; stop at the first keeper so
			// the log never has holes.
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		removed = true
		keep = append(keep, seg)
	}
	l.segments = keep
	l.refreshStats()
	return nil
}

// Close syncs the pending records (fsyncing per policy) and closes the
// active segment.
func (l *Log) Close() error {
	if l.active == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// Dir returns the directory backing the log.
func (l *Log) Dir() string { return l.dir }

// Stats returns current gauges; safe from any goroutine.
func (l *Log) Stats() Stats {
	return Stats{
		Records:  l.statRecords.Load(),
		Bytes:    l.statBytes.Load(),
		Segments: l.statSegs.Load(),
		Syncs:    l.statSyncs.Load(),
		Writes:   l.statWrites.Load(),
	}
}

func (l *Log) refreshStats() {
	var recs, bytes int64
	for i := range l.segments {
		recs += l.segments[i].records
		bytes += l.segments[i].bytes
	}
	l.statRecords.Store(recs)
	l.statBytes.Store(bytes)
	l.statSegs.Store(int64(len(l.segments)))
}
