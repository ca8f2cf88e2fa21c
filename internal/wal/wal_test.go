package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"decaf/internal/vtime"
)

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Kind:    RecordMessage,
			Origin:  vtime.SiteID(1 + i%3),
			Time:    uint64(10 + i),
			Payload: []byte(fmt.Sprintf("payload-%04d", i)),
		})
	}
	return recs
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if err := l.Replay(func(r Record) error {
		cp := r
		cp.Payload = append([]byte(nil), r.Payload...)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Origin != b[i].Origin ||
			a[i].Time != b[i].Time || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(50)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); !sameRecords(got, want) {
		t.Fatalf("replay mismatch: got %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay again: durability across process restarts.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !sameRecords(got, want) {
		t.Fatalf("replay after reopen mismatch: got %d records", len(got))
	}
	st := l2.Stats()
	if st.Records != int64(len(want)) {
		t.Fatalf("stats records = %d, want %d", st.Records, len(want))
	}
}

// TestOlderSegmentVersionRefused opens a log whose segment carries the
// previous format version (2): it must fail with an error, since its
// records' payloads use wire encodings that changed.
func TestOlderSegmentVersionRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(3) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[headerSize-1] != 3 {
		t.Fatalf("segment written at version %d, want 3", data[headerSize-1])
	}
	data[headerSize-1] = 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(dir, Options{}); err == nil {
		l2.Close()
		t.Fatal("a version-2 segment opened")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(40)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if got := collect(t, l); !sameRecords(got, want) {
		t.Fatal("replay mismatch across segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !sameRecords(got, want) {
		t.Fatal("replay mismatch after reopen")
	}
}

func TestMarkTracking(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastMarkSeq() != 0 {
		t.Fatal("fresh log should have no mark")
	}
	for _, r := range testRecords(5) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Mark(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Mark(2); err != nil {
		t.Fatal(err)
	}
	if l.LastMarkSeq() != 2 {
		t.Fatalf("LastMarkSeq = %d, want 2", l.LastMarkSeq())
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastMarkSeq() != 2 {
		t.Fatalf("LastMarkSeq after reopen = %d, want 2", l2.LastMarkSeq())
	}
}

func TestTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(30) // times 10..39, several segments
	for _, r := range recs[:20] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Mark(1); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[20:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Segments

	// Floor above the early records: segments wholly below the floor
	// AND before the mark's segment are dropped.
	if err := l.TruncateBelow(25); err != nil {
		t.Fatal(err)
	}
	after := l.Stats().Segments
	if after >= before {
		t.Fatalf("expected truncation: %d -> %d segments", before, after)
	}
	// Every surviving record with Time >= 25 must still be there, and
	// the mark must survive.
	var times []uint64
	marks := 0
	if err := l.Replay(func(r Record) error {
		if r.Kind == RecordMark {
			marks++
		} else {
			times = append(times, r.Time)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if marks != 1 {
		t.Fatalf("mark lost by truncation (marks=%d)", marks)
	}
	kept := make(map[uint64]bool)
	for _, tm := range times {
		kept[tm] = true
	}
	for _, r := range recs {
		if r.Time >= 25 && !kept[r.Time] {
			t.Fatalf("record at time %d lost by truncation", r.Time)
		}
	}
	l.Close()

	// Reopen after truncation still works.
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastMarkSeq() != 1 {
		t.Fatalf("mark seq after truncate+reopen = %d", l2.LastMarkSeq())
	}
}

func TestTruncateNeverDropsAfterMark(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Mark(1); err != nil {
		t.Fatal(err)
	}
	want := testRecords(30)
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Floor above everything: nothing after the newest mark may go.
	if err := l.TruncateBelow(1 << 40); err != nil {
		t.Fatal(err)
	}
	var got []Record
	for _, r := range collect(t, l) {
		if r.Kind == RecordMessage {
			got = append(got, r)
		}
	}
	if !sameRecords(got, want) {
		t.Fatalf("records after mark dropped: %d of %d survive", len(got), len(want))
	}
}

// walBytes flattens the log directory into (ordered file list, bytes
// per file) for the torn-write tests.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestTornTailEveryBoundary simulates a crash at EVERY byte boundary of
// the final segment: for each prefix length, copy the log directory,
// truncate the last segment to that length, Open, and assert that (a)
// recovery succeeds, (b) exactly the fully-written records survive,
// and (c) the log accepts appends afterwards.
func TestTornTailEveryBoundary(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(8)
	// Record the segment size after each append so we know which
	// records are complete at any given cut point.
	sizes := []int64{headerSize}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, l.segments[0].bytes)
	}
	l.Close()
	files := walFiles(t, src)
	if len(files) != 1 {
		t.Fatalf("expected a single segment, got %d", len(files))
	}
	full, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	completeAt := func(cut int64) int {
		n := 0
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= cut {
				n = i
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		got := collect(t, rl)
		wantN := completeAt(cut)
		if !sameRecords(got, want[:wantN]) {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), wantN)
		}
		// The log must keep working after recovery.
		extra := Record{Kind: RecordMessage, Origin: 9, Time: 999, Payload: []byte("post-crash")}
		if err := rl.Append(extra); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		got = collect(t, rl)
		if len(got) != wantN+1 || !bytes.Equal(got[len(got)-1].Payload, extra.Payload) {
			t.Fatalf("cut=%d: post-recovery append not replayable", cut)
		}
		rl.Close()
	}
}

// TestTornTailBitFlip corrupts one byte at every offset of the final
// segment's last record and asserts recovery drops exactly that record.
func TestTornTailBitFlip(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(6)
	var beforeLast int64
	for i, r := range want {
		if i == len(want)-1 {
			beforeLast = l.segments[0].bytes
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	files := walFiles(t, src)
	full, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	for off := beforeLast; off < int64(len(full)); off++ {
		dir := t.TempDir()
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0xA5
		if err := os.WriteFile(filepath.Join(dir, segName(1)), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("off=%d: open: %v", off, err)
		}
		got := collect(t, rl)
		// A flipped byte in the length field can make the frame claim
		// to extend past EOF (short body -> truncated, fine) or create
		// a shorter frame whose CRC fails. Either way the tail from
		// the corrupted record on must be gone, and no record may be
		// silently altered.
		if len(got) > len(want)-1 {
			t.Fatalf("off=%d: corrupted record survived (got %d)", off, len(got))
		}
		if !sameRecords(got, want[:len(got)]) {
			t.Fatalf("off=%d: surviving records altered", off)
		}
		rl.Close()
	}
}

// TestCorruptionInClosedSegmentFails: corruption before the final
// segment is NOT a torn write and must fail loudly.
func TestCorruptionInClosedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(30) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("need at least 2 segments")
	}
	l.Close()
	files := walFiles(t, dir)
	first, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	first[headerSize+2] ^= 0xFF
	if err := os.WriteFile(files[0], first, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("expected open to fail on mid-log corruption")
	}
}

func TestMarkVarintRoundTrip(t *testing.T) {
	payload := binary.AppendUvarint(nil, 777)
	seq, n := binary.Uvarint(payload)
	if n <= 0 || seq != 777 {
		t.Fatal("uvarint round trip broken")
	}
}

// segmentFilesSize sums the sizes of the segment files in dir.
func segmentFilesSize(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range walFiles(t, dir) {
		n += fileSize(t, name)
	}
	return n
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestReplaySeesPendingRecords: records appended but not yet synced are
// replayed, because Replay writes them first.
func TestReplaySeesPendingRecords(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := testRecords(10)
	for _, r := range want[:4] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, r := range want[4:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l); !sameRecords(got, want) {
		t.Fatalf("replay saw %d of %d records", len(got), len(want))
	}
	if st := l.Stats(); st.Writes != 2 || st.Syncs != 1 {
		t.Fatalf("writes=%d syncs=%d, want 2 writes (Sync, Replay) and 1 fsync", st.Writes, st.Syncs)
	}
}

// TestSyncAndCloseWritePending: Append leaves the file alone; Sync
// writes every pending record in one write and fsyncs it, a Sync with
// nothing new does nothing, and Close writes what is still pending.
func TestSyncAndCloseWritePending(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	want := testRecords(12)
	for _, r := range want[:8] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileSize(t, path); got != headerSize {
		t.Fatalf("file holds %d bytes before Sync, want the %d-byte header", got, headerSize)
	}
	for i := 0; i < 2; i++ {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fileSize(t, path), l.segments[0].bytes; got != want {
		t.Fatalf("file holds %d bytes after Sync, want %d", got, want)
	}
	if st := l.Stats(); st.Writes != 1 || st.Syncs != 1 {
		t.Fatalf("writes=%d syncs=%d after two Syncs of one batch, want 1 and 1", st.Writes, st.Syncs)
	}
	for _, r := range want[8:] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !sameRecords(got, want) {
		t.Fatalf("reopened log holds %d of %d records", len(got), len(want))
	}
}

// TestUnflushedWriterLeavesWholeRecords: a writer that stops with records
// still pending (a crash between Append and Sync) leaves a log that
// reopens to exactly the records it had synced.
func TestUnflushedWriterLeavesWholeRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(9)
	for i, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first writer is abandoned here, its last three records pending.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); !sameRecords(got, want[:6]) {
		t.Fatalf("reopened log holds %d records, want the 6 synced ones", len(got))
	}
	l2.Close()
}

// TestRotationWithPendingKeepsAccounting: rotation writes the pending
// frames to the segment they were counted in, so every segment's bytes,
// records and maxTime match its file.
func TestRotationWithPendingKeepsAccounting(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 100, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := testRecords(30)
	// Times out of order within segments, so maxTime is not the last.
	for i := range want {
		want[i].Time = uint64(100 + (i*7)%30)
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segments) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(l.segments))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seg := range l.segments {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		var records int64
		var maxTime uint64
		for off := headerSize; off < len(data); {
			rec, n, err := parseFrame(data[off:])
			if err != nil {
				t.Fatalf("%s at %d: %v", seg.path, off, err)
			}
			records++
			maxTime = max(maxTime, rec.Time)
			off += n
		}
		if seg.bytes != int64(len(data)) || seg.records != records || seg.maxTime != maxTime {
			t.Fatalf("%s: accounted bytes=%d records=%d maxTime=%d, file has %d, %d, %d",
				seg.path, seg.bytes, seg.records, seg.maxTime, len(data), records, maxTime)
		}
		total += records
	}
	if total != int64(len(want)) {
		t.Fatalf("segments hold %d records, want %d", total, len(want))
	}
	if st, size := l.Stats(), segmentFilesSize(t, dir); st.Bytes != size {
		t.Fatalf("Stats().Bytes = %d, segment files hold %d", st.Bytes, size)
	}
	if got := collect(t, l); !sameRecords(got, want) {
		t.Fatal("replay mismatch across segments")
	}
}

// TestAppendAllocatesNothing: once the pending buffer has grown to a
// batch's size, Append allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecords(1)[0]
	appendOne := func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for range 256 {
		appendOne()
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(64, appendOne); n != 0 {
		t.Fatalf("Append: %v allocations", n)
	}
}
