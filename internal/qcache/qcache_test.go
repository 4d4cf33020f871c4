package qcache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/wire"
)

// mutation is one scripted store operation for the crash matrix.
type mutation struct {
	del   bool
	obj   int
	value []byte
	cycle cmatrix.Cycle
	col   []cmatrix.Cycle
}

// script builds a deterministic mutation schedule. Puts come in runs
// that pass equal columns, as the vector protocols cache every object
// of a cycle with one vector; a put starts a new run with probability
// 0.4, so there are runs of one, as under F-Matrix. Each put passes its
// own copy of the column.
func script(seed int64, n, objects int) []mutation {
	rng := rand.New(rand.NewSource(seed))
	muts := make([]mutation, n)
	var run []cmatrix.Cycle
	for i := range muts {
		obj := rng.Intn(objects)
		if rng.Float64() < 0.2 {
			muts[i] = mutation{del: true, obj: obj}
			continue
		}
		if run == nil || rng.Float64() < 0.4 {
			run = make([]cmatrix.Cycle, objects)
			for j := range run {
				run[j] = cmatrix.Cycle(rng.Intn(40))
			}
		}
		col := append([]cmatrix.Cycle(nil), run...)
		val := make([]byte, rng.Intn(9))
		rng.Read(val)
		muts[i] = mutation{obj: obj, value: val, cycle: cmatrix.Cycle(i + 1), col: col}
	}
	return muts
}

// replay applies a mutation prefix to a plain map — the expected
// inventory after recovering exactly k durable records.
func replay(muts []mutation, k int) map[int]Entry {
	inv := map[int]Entry{}
	for _, m := range muts[:k] {
		if m.del {
			delete(inv, m.obj)
		} else {
			inv[m.obj] = Entry{Value: m.value, Cycle: m.cycle, Col: m.col}
		}
	}
	return inv
}

func apply(t *testing.T, s *Store, m mutation) error {
	t.Helper()
	if m.del {
		return s.Delete(m.obj)
	}
	return s.Put(m.obj, m.value, m.cycle, m.col)
}

func sameInventory(t *testing.T, got map[int]Entry, want map[int]Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("inventory has %d entries, want %d", len(got), len(want))
	}
	for obj, w := range want {
		g, ok := got[obj]
		if !ok {
			t.Fatalf("object %d missing from inventory", obj)
		}
		if g.Cycle != w.Cycle || !bytes.Equal(g.Value, w.Value) || !reflect.DeepEqual(normCol(g.Col), normCol(w.Col)) {
			t.Fatalf("object %d: got %+v want %+v", obj, g, w)
		}
	}
}

func normCol(c []cmatrix.Cycle) []cmatrix.Cycle {
	if len(c) == 0 {
		return nil
	}
	return c
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	muts := script(1, 40, 8)
	for _, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
	}
	want := replay(muts, len(muts))
	sameInventory(t, s.Inventory(), want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameInventory(t, re.Inventory(), want)
}

// recordSizes applies muts to a fresh store and returns the bytes each
// one wrote, measured through an unreachable failpoint budget so that
// segment rotation does not hide any.
func recordSizes(t *testing.T, muts []mutation, opts Options) []int64 {
	t.Helper()
	const unlimited = 1 << 40
	opts.WriteBudget = unlimited
	s, err := OpenOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sizes := make([]int64, len(muts))
	prev := s.budget
	for i, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
		sizes[i], prev = prev-s.budget, s.budget
	}
	return sizes
}

func sum(xs []int64) (total int64) {
	for _, x := range xs {
		total += x
	}
	return total
}

// TestCrashAtEveryByte is the crash-recovery matrix: the failpoint
// writer kills the store at every byte boundary of the record stream,
// and recovery must yield exactly the inventory of the longest valid
// record prefix — never a torn record, never a lost durable one, and
// never a shared-column put resolved against the wrong column. Small
// segments put rotations, and the full column each new segment starts
// with, inside the matrix.
func TestCrashAtEveryByte(t *testing.T) {
	muts := script(2, 16, 5)
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for _, maxSeg := range []int64{0, 160} {
		opts := Options{MaxSegmentBytes: maxSeg}
		sizes := recordSizes(t, muts, opts)
		// Budget 0 means unlimited (no failpoint), so the matrix starts at 1.
		for budget := int64(1); budget <= sum(sizes); budget += step {
			dir := t.TempDir()
			opts.WriteBudget = budget
			s, err := OpenOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range muts {
				if err := apply(t, s, m); err != nil {
					break // the crash
				}
			}
			// No Close: the process died. Reopen cold.
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("segment cap %d, budget %d: reopen: %v", maxSeg, budget, err)
			}
			// Durable records: those whose framed bytes fit the budget whole.
			durable, used := 0, int64(0)
			for _, sz := range sizes {
				if used+sz > budget {
					break
				}
				used += sz
				durable++
			}
			sameInventory(t, re.Inventory(), replay(muts, durable))
			// The store must accept appends after recovering a torn tail.
			if err := re.Put(99, []byte("post"), 77, nil); err != nil {
				t.Fatalf("segment cap %d, budget %d: post-recovery put: %v", maxSeg, budget, err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := Open(dir)
			if err != nil {
				t.Fatalf("segment cap %d, budget %d: second reopen: %v", maxSeg, budget, err)
			}
			if e, ok := again.Get(99); !ok || !bytes.Equal(e.Value, []byte("post")) {
				t.Fatalf("segment cap %d, budget %d: post-recovery put not durable", maxSeg, budget)
			}
			again.Close()
		}
	}
}

// TestWriteErrorThenMoreMutations pins recovery from a failed append
// the process survives (ENOSPC, say): the write fails part-way, later
// Puts and Deletes succeed, and a cold reopen must recover exactly the
// mutations that succeeded — none lost behind the torn record, no
// deleted entry resurrected. The store either truncates the torn bytes
// away or, when it cannot, rotates past them.
func TestWriteErrorThenMoreMutations(t *testing.T) {
	muts := script(4, 20, 5)
	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for _, canTruncate := range []bool{true, false} {
		total := sum(recordSizes(t, muts, Options{}))
		for budget := int64(1); budget < total; budget += step {
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{WriteBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			// Transient: only the write crossing the budget fails. Otherwise
			// the store cannot truncate either; the test then lets writes
			// succeed again by hand, leaving the torn bytes in place.
			s.transient = canTruncate
			model := map[int]Entry{}
			failed := 0
			for _, m := range muts {
				if err := apply(t, s, m); err != nil {
					failed++
					s.budget = -1
					continue
				}
				if m.del {
					delete(model, m.obj)
				} else {
					model[m.obj] = Entry{Value: m.value, Cycle: m.cycle, Col: m.col}
				}
			}
			if failed != 1 {
				t.Fatalf("truncate %v, budget %d: %d mutations failed, want 1", canTruncate, budget, failed)
			}
			sameInventory(t, s.Inventory(), model)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("truncate %v, budget %d: reopen: %v", canTruncate, budget, err)
			}
			sameInventory(t, re.Inventory(), model)
			re.Close()
		}
	}
}

// TestRecoverSegmentLongestPrefix drives the pure recovery function
// over every truncation of a record stream.
func TestRecoverSegmentLongestPrefix(t *testing.T) {
	var data []byte
	var bounds []int // cumulative framed record ends
	for i := 0; i < 8; i++ {
		payload := wire.AppendCacheRecord(nil, wire.CacheRecord{
			Kind: wire.CachePut, Obj: i, Cycle: cmatrix.Cycle(i + 1),
			Value: bytes.Repeat([]byte{byte(i)}, i),
			Col:   []cmatrix.Cycle{1, 2, cmatrix.Cycle(i)},
		})
		data = binary.BigEndian.AppendUint32(data, uint32(len(payload)))
		data = append(data, payload...)
		bounds = append(bounds, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, valid := RecoverSegment(data[:cut])
		wantRecs := 0
		for _, b := range bounds {
			if b <= cut {
				wantRecs++
			}
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantRecs)
		}
		wantValid := 0
		if wantRecs > 0 {
			wantValid = bounds[wantRecs-1]
		}
		if valid != wantValid {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, wantValid)
		}
	}
	// A flipped byte inside a record stops recovery at that record.
	bad := append([]byte(nil), data...)
	bad[bounds[2]+20] ^= 0xff
	recs, valid := RecoverSegment(bad)
	if len(recs) != 3 || valid != bounds[2] {
		t.Fatalf("corruption in record 3: recovered %d records to byte %d, want 3 to %d", len(recs), valid, bounds[2])
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	muts := script(3, 60, 6)
	for _, m := range muts {
		if err := apply(t, s, m); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.Segments(); n < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", n)
	}
	want := replay(muts, len(muts))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Segments(); n != 1 {
		t.Fatalf("compaction left %d segments, want 1", n)
	}
	sameInventory(t, s.Inventory(), want)
	// Appends after compaction land in the compacted segment.
	if err := s.Put(42, []byte("after"), 99, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want[42] = Entry{Value: []byte("after"), Cycle: 99}
	sameInventory(t, re.Inventory(), want)
}

// TestOpenIgnoresCompactionTemporaries pins the crash-mid-compaction
// story: a leftover .tmp segment (the rename never happened) is dead
// and must not shadow or corrupt the live segments.
func TestOpenIgnoresCompactionTemporaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte("live"), 5, []cmatrix.Cycle{1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, segName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Get(1); !ok || !bytes.Equal(e.Value, []byte("live")) {
		t.Fatal("live entry lost in the presence of a compaction temporary")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale compaction temporary not removed")
	}
}

// TestGarbageSegmentTail pins recovery from arbitrary trailing garbage,
// not just clean truncation.
func TestGarbageSegmentTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("keep"), 3, []cmatrix.Cycle{9}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An absurd length prefix followed by noise.
	f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Get(7); !ok || !bytes.Equal(e.Value, []byte("keep")) {
		t.Fatal("entry before garbage tail lost")
	}
	if err := re.Put(8, []byte("new"), 4, nil); err != nil {
		t.Fatal(err)
	}
}

// frameRecords lays records out as a segment's bytes, returning the
// end offset of each.
func frameRecords(recs ...wire.CacheRecord) (data []byte, ends []int) {
	for _, rec := range recs {
		data = frame(data, rec)
		ends = append(ends, len(data))
	}
	return data, ends
}

// TestRecoverSegmentUnresolvedSharedPut pins that a shared-column put
// with no full column before it in its segment ends the valid prefix:
// recovery never hands that entry an empty or borrowed column.
func TestRecoverSegmentUnresolvedSharedPut(t *testing.T) {
	col := []cmatrix.Cycle{4, 5, 6}
	full := wire.CacheRecord{Kind: wire.CachePut, Obj: 1, Cycle: 9, Value: []byte("f"), Col: col}
	bare := wire.CacheRecord{Kind: wire.CachePut, Obj: 3, Cycle: 9, Value: []byte("b")}
	del := wire.CacheRecord{Kind: wire.CacheDelete, Obj: 1}
	shared := wire.CacheRecord{Kind: wire.CachePutShared, Obj: 2, Cycle: 9, Value: []byte("s")}
	cases := []struct {
		name string
		recs []wire.CacheRecord
		want int // records recovered
	}{
		{"leading", []wire.CacheRecord{shared, full}, 0},
		{"after a delete", []wire.CacheRecord{del, shared, full}, 1},
		{"after a column-less put", []wire.CacheRecord{bare, shared}, 1},
		{"after a full put", []wire.CacheRecord{full, del, shared}, 3},
	}
	for _, tc := range cases {
		data, ends := frameRecords(tc.recs...)
		recs, valid := RecoverSegment(data)
		wantValid := 0
		if tc.want > 0 {
			wantValid = ends[tc.want-1]
		}
		if len(recs) != tc.want || valid != wantValid {
			t.Fatalf("%s: recovered %d records to byte %d, want %d to %d", tc.name, len(recs), valid, tc.want, wantValid)
		}
		for _, rec := range recs {
			if rec.Kind == wire.CachePutShared {
				t.Fatalf("%s: unresolved shared-column put returned", tc.name)
			}
			if rec.Obj == shared.Obj && !reflect.DeepEqual(rec.Col, col) {
				t.Fatalf("%s: shared-column put resolved to %v, want %v", tc.name, rec.Col, col)
			}
		}
	}

	// Through the store: the unresolved put is truncated away on open.
	dir := t.TempDir()
	data, _ := frameRecords(shared, full)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Len(); n != 0 {
		t.Fatalf("store recovered %d entries from a segment led by an unresolved shared put", n)
	}
}

// sharesColumns reports whether all the given entries hold one slice.
func sharesColumns(entries []Entry) bool {
	for _, e := range entries {
		if len(e.Col) == 0 || &e.Col[0] != &entries[0].Col[0] {
			return false
		}
	}
	return true
}

// TestCompactKeepsColumnsShared interleaves two cycles' puts, even
// objects in one and odd in the other, so the live log writes every
// column in full; then it compacts. The compacted segment holds each
// distinct column once, and both the compacting store and a reopened
// one hold each as one shared slice.
func TestCompactKeepsColumnsShared(t *testing.T) {
	const n = 64
	colA, colB := make([]cmatrix.Cycle, n), make([]cmatrix.Cycle, n)
	for i := range colA {
		colA[i], colB[i] = cmatrix.Cycle(i%5), cmatrix.Cycle(i%7)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := s.Put(2*k, []byte{byte(k)}, 5, append([]cmatrix.Cycle(nil), colA...)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(2*k+1, []byte{byte(k)}, 6, append([]cmatrix.Cycle(nil), colB...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segName(s.seg)))
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(3 * 8 * n); st.Size() >= limit {
		t.Fatalf("compacted segment is %d bytes, want < %d (two columns plus short records)", st.Size(), limit)
	}
	check := func(stage string, s *Store) {
		t.Helper()
		var a, b []Entry
		for k := 0; k < 10; k++ {
			ea, _ := s.Get(2 * k)
			eb, _ := s.Get(2*k + 1)
			a, b = append(a, ea), append(b, eb)
		}
		if !sharesColumns(a) || !sharesColumns(b) {
			t.Fatalf("%s: entries cached with equal columns hold separate slices", stage)
		}
		if !reflect.DeepEqual(a[0].Col, colA) || !reflect.DeepEqual(b[0].Col, colB) {
			t.Fatalf("%s: shared columns hold the wrong entries", stage)
		}
	}
	check("after compaction", s)
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after reopen", re)
}

// TestSharedColumnWrittenOnce pins the point of shared-column records:
// 500 puts of one n = 2000 vector (a fresh copy each, as a client
// passes it) write less than twice one column's bytes, and hold one
// column in memory.
func TestSharedColumnWrittenOnce(t *testing.T) {
	const n, puts = 2000, 500
	vec := make([]cmatrix.Cycle, n)
	for i := range vec {
		vec[i] = cmatrix.Cycle(1000 + i%97)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for obj := 0; obj < puts; obj++ {
		if err := s.Put(obj, []byte("8 bytes!"), 1200, append([]cmatrix.Cycle(nil), vec...)); err != nil {
			t.Fatal(err)
		}
		e, _ := s.Get(obj)
		entries = append(entries, e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(2 * 8 * n); st.Size() >= limit {
		t.Fatalf("%d puts of one column wrote %d bytes, want < %d", puts, st.Size(), limit)
	}
	if !sharesColumns(entries) {
		t.Fatal("entries cached with one column hold separate slices")
	}
}

// TestRecoverVersion1Segment opens a segment written by the version-1
// codec, which had no shared-column records, and appends version-2
// records after it in the same segment.
func TestRecoverVersion1Segment(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if data[8] != 1 {
		t.Fatalf("fixture's first record is version %d, want 1", data[8])
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	vec := []cmatrix.Cycle{3, 0, 7, 7, 2}
	want := map[int]Entry{
		0: {Value: []byte("zero'"), Cycle: 10, Col: []cmatrix.Cycle{4, 0, 7, 7, 10}},
		2: {Cycle: 8, Col: vec},
		3: {Value: []byte("three"), Cycle: 9, Col: []cmatrix.Cycle{1, 2, 3, 4, 5}},
		4: {Value: []byte("four"), Cycle: 9, Col: []cmatrix.Cycle{9, 9, 0, 0, 1}},
		5: {Value: []byte("five"), Cycle: 10},
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameInventory(t, s.Inventory(), want)
	next := []cmatrix.Cycle{5, 5, 11, 7, 2}
	for _, obj := range []int{6, 7} {
		if err := s.Put(obj, []byte{byte(obj)}, 11, next); err != nil {
			t.Fatal(err)
		}
		want[obj] = Entry{Value: []byte{byte(obj)}, Cycle: 11, Col: next}
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	delete(want, 2)
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameInventory(t, re.Inventory(), want)
}

// BenchmarkStorePut measures one Put: a vector column at n = 2000
// shared by a cycle's 50 puts, and F-Matrix columns at n = 300, each
// distinct. disk-B/op is the bytes appended per put; the inventory is
// compacted, untimed, every 1024 puts to bound the disk used.
func BenchmarkStorePut(b *testing.B) {
	cases := []struct {
		name    string
		n       int
		columns int // distinct columns cycled through
		run     int // consecutive puts passing one column
	}{
		{"vector-n2000-shared", 2000, 2, 50},
		{"fmatrix-n300-distinct", 300, 64, 1},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cols := make([][]cmatrix.Cycle, bc.columns)
			for k := range cols {
				cols[k] = make([]cmatrix.Cycle, bc.n)
				for i := range cols[k] {
					cols[k][i] = cmatrix.Cycle(k*31 + i%13)
				}
			}
			s, err := OpenOptions(b.TempDir(), Options{MaxSegmentBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			value := []byte("8 bytes!")
			var written int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%1024 == 0 {
					b.StopTimer()
					if err := s.Compact(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				before := s.size
				if err := s.Put(i%bc.n, value, cmatrix.Cycle(1+i/bc.run), cols[(i/bc.run)%bc.columns]); err != nil {
					b.Fatal(err)
				}
				written += s.size - before
			}
			b.ReportMetric(float64(written)/float64(b.N), "disk-B/op")
		})
	}
}
