package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// This file carries the persistent quasi-caching tier (Section 3.3 as a
// first-class subsystem, DESIGN.md §13):
//
//   - BCQ1 cache records: the on-disk representation of one cached
//     object — value, caching cycle, and the cached control column that
//     keeps validation air-only after a restart. Records are versioned
//     and checksummed so recovery can discard torn tails byte-exactly.
//   - BCQ2 subset subscriptions: a tuner's partial-replication filter,
//     sent up the broadcast connection — the server then ships only the
//     subscribed objects' values plus the control needed to validate
//     them.
//   - BCQ3 subset cycles: the per-subset broadcast frame. Each listed
//     object carries its full F-Matrix control column, so a subset
//     client validates reads exactly as a full-channel caching client
//     would.
//
// All multi-byte integers are big-endian.

// Cache record layout, version 2:
//
//	magic    4 bytes  "BCQ1"
//	version  1 byte   2
//	kind     1 byte   0 = put, 1 = delete, 2 = shared-column put
//	obj      uvarint
//	cycle    uvarint  caching cycle (unwrapped)
//	vlen     uvarint  value length (0 for deletes)
//	value    vlen bytes
//	clen     uvarint  control column entries (0 for deletes; absent in
//	                  shared-column puts, as is the column)
//	column   8 bytes each, unwrapped cycles (disk pays no air bandwidth)
//	hash     8 bytes  FNV-1a 64 over everything above
//
// A shared-column put carries no column of its own: its column is the
// one of the last put before it, in the same record stream, that
// carried a non-empty column. Under the vector protocols every object
// cached in one cycle retains the same n-entry vector, so a run of such
// puts writes that vector once, and each later put of the run costs a
// few dozen bytes.
//
// Version 1 records (still decoded, no longer written) have the same
// header and hash, fixed-width fields in between — obj 4 bytes, cycle
// 8, vlen 4, value, clen 4, column — and no shared-column kind. A
// version-1 decoder rejects every version-2 record (by its version
// byte) rather than misreading it.

// CacheRecordMagic identifies a persistent cache record.
var CacheRecordMagic = [4]byte{'B', 'C', 'Q', '1'}

// CacheRecordVersion is the current record codec version; decoders
// reject records from a future codec rather than misparse them.
const CacheRecordVersion = 2

// Cache record kinds.
const (
	CachePut       = 0 // an object entered (or refreshed in) the cache
	CacheDelete    = 1 // an object left the cache
	CachePutShared = 2 // a put whose column is the last column written (version 2)
)

// CacheRecord is one logical cache mutation: a put carries the cached
// value, its caching cycle and the control column retained for
// validation; a shared-column put carries the value and cycle only; a
// delete carries only the object id.
type CacheRecord struct {
	Kind  byte
	Obj   int
	Cycle cmatrix.Cycle
	Value []byte
	Col   []cmatrix.Cycle // Col[i] = C(i, Obj) at the caching cycle; empty for shared-column puts
}

// AppendCacheRecord appends the checksummed encoding of rec to dst, so
// a writer can reuse one buffer across records. A shared-column put is
// encoded without a column whatever rec.Col holds.
func AppendCacheRecord(dst []byte, rec CacheRecord) []byte {
	start := len(dst)
	dst = append(dst, CacheRecordMagic[:]...)
	dst = append(dst, CacheRecordVersion, rec.Kind)
	dst = binary.AppendUvarint(dst, uint64(uint32(rec.Obj)))
	dst = binary.AppendUvarint(dst, uint64(rec.Cycle))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Value)))
	dst = append(dst, rec.Value...)
	if rec.Kind != CachePutShared {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Col)))
		for _, c := range rec.Col {
			dst = binary.BigEndian.AppendUint64(dst, uint64(c))
		}
	}
	h := fnv.New64a()
	h.Write(dst[start:])
	return h.Sum(dst)
}

// DecodeCacheRecord parses one cache record of either version,
// verifying version and checksum. Any corruption — torn tail, flipped
// bit, trailing bytes — is an error, never a wrong record. A
// shared-column put decodes with an empty column; resolving it is the
// record stream's job.
func DecodeCacheRecord(data []byte) (CacheRecord, error) {
	var rec CacheRecord
	if len(data) < 6+8 {
		return rec, ErrShortBuffer
	}
	if [4]byte(data[0:4]) != CacheRecordMagic {
		return rec, fmt.Errorf("wire: bad cache record magic %q", data[0:4])
	}
	version := data[4]
	if version != 1 && version != CacheRecordVersion {
		return rec, fmt.Errorf("wire: cache record version %d (want 1 or %d)", version, CacheRecordVersion)
	}
	rec.Kind = data[5]
	if rec.Kind != CachePut && rec.Kind != CacheDelete && (rec.Kind != CachePutShared || version == 1) {
		return rec, fmt.Errorf("wire: bad cache record kind %d in version %d", rec.Kind, version)
	}
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	if binary.BigEndian.Uint64(data[len(body):]) != h.Sum64() {
		return rec, fmt.Errorf("wire: cache record checksum mismatch")
	}
	r := recordReader{b: body[6:], v1: version == 1}
	rec.Obj = int(r.uint(4))
	rec.Cycle = cmatrix.Cycle(r.uint(8))
	if vlen := r.uint(4); vlen > 0 {
		rec.Value = append([]byte(nil), r.take(vlen, 1)...)
	}
	if rec.Kind != CachePutShared {
		if clen := r.uint(4); clen > 0 {
			raw := r.take(clen, 8)
			rec.Col = make([]cmatrix.Cycle, len(raw)/8)
			for i := range rec.Col {
				rec.Col[i] = cmatrix.Cycle(binary.BigEndian.Uint64(raw[8*i:]))
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes in cache record", len(r.b))
	}
	if r.err != nil {
		return CacheRecord{}, r.err
	}
	return rec, nil
}

// recordReader walks a cache record body; the first error sticks and
// later reads return zero values.
type recordReader struct {
	b   []byte
	v1  bool // fixed-width big-endian fields instead of uvarints
	err error
}

// uint reads one integer field: width bytes in version 1, a uvarint
// that must fit width bytes in version 2.
func (r *recordReader) uint(width int) uint64 {
	if r.err != nil {
		return 0
	}
	if r.v1 {
		if len(r.b) < width {
			r.err = ErrShortBuffer
			return 0
		}
		var v uint64
		for _, c := range r.b[:width] {
			v = v<<8 | uint64(c)
		}
		r.b = r.b[width:]
		return v
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || width < 8 && v>>(8*width) != 0 {
		r.err = fmt.Errorf("wire: bad varint field in cache record")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// take returns the next count elements of size bytes each.
func (r *recordReader) take(count uint64, size int) []byte {
	if r.err != nil {
		return nil
	}
	if count > uint64(len(r.b)/size) {
		r.err = fmt.Errorf("wire: implausible cache record field of %d×%d bytes in %d", count, size, len(r.b))
		return nil
	}
	out := r.b[:int(count)*size]
	r.b = r.b[len(out):]
	return out
}

// Subset subscription layout:
//
//	magic  4 bytes  "BCQ2"
//	count  4 bytes
//	obj    4 bytes each, strictly ascending

// SubsetSubscribeMagic identifies a subset-subscription frame.
var SubsetSubscribeMagic = [4]byte{'B', 'C', 'Q', '2'}

// IsSubsetSubscribeFrame reports whether data begins like a BCQ2 frame.
func IsSubsetSubscribeFrame(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[0:4]) == SubsetSubscribeMagic
}

// EncodeSubsetSubscribe serializes a tuner's object-subset filter. The
// object list is sorted and deduplicated; an empty list (subscribe to
// nothing) is legal and encodes a zero count.
func EncodeSubsetSubscribe(objs []int) []byte {
	norm := NormalizeSubset(objs)
	buf := make([]byte, 0, 8+4*len(norm))
	buf = append(buf, SubsetSubscribeMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(norm)))
	for _, o := range norm {
		buf = binary.BigEndian.AppendUint32(buf, uint32(o))
	}
	return buf
}

// DecodeSubsetSubscribe parses a subset-subscription frame. Object ids
// must be strictly ascending (the canonical form the encoder emits).
func DecodeSubsetSubscribe(data []byte) ([]int, error) {
	if len(data) < 8 {
		return nil, ErrShortBuffer
	}
	if [4]byte(data[0:4]) != SubsetSubscribeMagic {
		return nil, fmt.Errorf("wire: bad subset-subscribe magic %q", data[0:4])
	}
	count := int(binary.BigEndian.Uint32(data[4:8]))
	if count > (len(data)-8)/4 {
		return nil, fmt.Errorf("wire: implausible subset count %d in %d bytes", count, len(data))
	}
	if len(data) != 8+4*count {
		return nil, fmt.Errorf("wire: subset frame is %d bytes but header describes %d", len(data), 8+4*count)
	}
	objs := make([]int, count)
	for i := range objs {
		objs[i] = int(binary.BigEndian.Uint32(data[8+4*i : 12+4*i]))
		if i > 0 && objs[i] <= objs[i-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", i)
		}
	}
	return objs, nil
}

// NormalizeSubset sorts and deduplicates an object-subset filter into
// the canonical (strictly ascending) form both codec and server use.
func NormalizeSubset(objs []int) []int {
	norm := append([]int(nil), objs...)
	sort.Ints(norm)
	out := norm[:0]
	for i, o := range norm {
		if i == 0 || o != norm[i-1] {
			out = append(out, o)
		}
	}
	return out
}

// Subset cycle layout:
//
//	magic    4 bytes  "BCQ3"
//	cycle    8 bytes  cycle number (unwrapped)
//	objects  4 bytes  n, the total database size
//	objBytes 4 bytes  bytes per object value slot
//	tsBits   1 byte   timestamp width
//	count    4 bytes  listed objects
//	per listed object, ascending id order:
//	  obj    4 bytes
//	  value  objBytes bytes (zero-padded, as in BCC1)
//	  column n bit-packed wrapped timestamps, byte-aligned per object
//
// Only matrix control ships as subsets: each listed object's full
// column is exactly the control a caching client retains (Section 3.3),
// so partial replication costs no validation precision.

// SubsetCycleMagic identifies a subset cycle frame.
var SubsetCycleMagic = [4]byte{'B', 'C', 'Q', '3'}

const subsetHeaderBytes = 4 + 8 + 4 + 4 + 1 + 4

// IsSubsetFrame reports whether data begins like a BCQ3 frame.
func IsSubsetFrame(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[0:4]) == SubsetCycleMagic
}

// SubsetCycle is a partial-replication view of one broadcast cycle: the
// subscribed objects' values and full control columns, plus the
// database dimensions needed to rebuild a validating client view.
type SubsetCycle struct {
	Number   cmatrix.Cycle
	Objects  int // total database size n
	ObjBytes int
	TsBits   int
	Objs     []int             // listed object ids, strictly ascending
	Values   [][]byte          // parallel to Objs, each ObjBytes long
	Columns  [][]cmatrix.Cycle // parallel to Objs, each n entries
}

// SubsetOf restricts a full broadcast cycle to an object subset. The
// cycle must carry matrix control (subset frames ship full columns).
func SubsetOf(cb *bcast.CycleBroadcast, objs []int) (*SubsetCycle, error) {
	if cb.Matrix == nil {
		return nil, fmt.Errorf("wire: subset cycles require matrix control (have %v)", cb.Layout.Control)
	}
	l := cb.Layout
	if err := l.Validate(); err != nil {
		return nil, err
	}
	norm := NormalizeSubset(objs)
	sc := &SubsetCycle{
		Number:   cb.Number,
		Objects:  l.Objects,
		ObjBytes: int((l.ObjectBits + 7) / 8),
		TsBits:   l.TimestampBits,
		Objs:     norm,
	}
	for _, o := range norm {
		if o < 0 || o >= l.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, l.Objects)
		}
		v := cb.Values[o]
		if len(v) > sc.ObjBytes {
			return nil, fmt.Errorf("wire: object %d value is %d bytes, slot holds %d", o, len(v), sc.ObjBytes)
		}
		slot := make([]byte, sc.ObjBytes)
		copy(slot, v)
		sc.Values = append(sc.Values, slot)
		sc.Columns = append(sc.Columns, append([]cmatrix.Cycle(nil), cb.Matrix.Column(o)...))
	}
	return sc, nil
}

// EncodeSubsetCycle serializes a subset cycle frame.
func EncodeSubsetCycle(sc *SubsetCycle) ([]byte, error) {
	if sc.Number < 1 {
		return nil, fmt.Errorf("wire: bad cycle number %d", sc.Number)
	}
	if sc.Objects < 1 || sc.ObjBytes < 1 || sc.TsBits < 1 || sc.TsBits > 32 {
		return nil, fmt.Errorf("wire: bad subset dimensions n=%d objBytes=%d tsBits=%d", sc.Objects, sc.ObjBytes, sc.TsBits)
	}
	if len(sc.Values) != len(sc.Objs) || len(sc.Columns) != len(sc.Objs) {
		return nil, fmt.Errorf("wire: subset shape mismatch: %d objs, %d values, %d columns", len(sc.Objs), len(sc.Values), len(sc.Columns))
	}
	w := NewBitWriter()
	var hdr [subsetHeaderBytes]byte
	copy(hdr[0:4], SubsetCycleMagic[:])
	binary.BigEndian.PutUint64(hdr[4:12], uint64(sc.Number))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(sc.Objects))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(sc.ObjBytes))
	hdr[20] = byte(sc.TsBits)
	binary.BigEndian.PutUint32(hdr[21:25], uint32(len(sc.Objs)))
	w.WriteBytes(hdr[:])
	codec := cmatrix.Codec{Bits: sc.TsBits}
	for k, o := range sc.Objs {
		if o < 0 || o >= sc.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, sc.Objects)
		}
		if k > 0 && o <= sc.Objs[k-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", k)
		}
		if len(sc.Values[k]) > sc.ObjBytes {
			return nil, fmt.Errorf("wire: object %d value is %d bytes, slot holds %d", o, len(sc.Values[k]), sc.ObjBytes)
		}
		if len(sc.Columns[k]) != sc.Objects {
			return nil, fmt.Errorf("wire: object %d column has %d entries, want %d", o, len(sc.Columns[k]), sc.Objects)
		}
		var ob [4]byte
		binary.BigEndian.PutUint32(ob[:], uint32(o))
		w.WriteBytes(ob[:])
		slot := make([]byte, sc.ObjBytes)
		copy(slot, sc.Values[k])
		w.WriteBytes(slot)
		for _, c := range sc.Columns[k] {
			w.WriteBits(uint64(codec.Encode(c)), sc.TsBits)
		}
		w.Align()
	}
	return w.Bytes(), nil
}

// DecodeSubsetCycle parses a subset cycle frame; the frame length must
// match the header exactly.
func DecodeSubsetCycle(data []byte) (*SubsetCycle, error) {
	if len(data) < subsetHeaderBytes {
		return nil, ErrShortBuffer
	}
	if [4]byte(data[0:4]) != SubsetCycleMagic {
		return nil, fmt.Errorf("wire: bad subset cycle magic %q", data[0:4])
	}
	sc := &SubsetCycle{
		Number:   cmatrix.Cycle(binary.BigEndian.Uint64(data[4:12])),
		Objects:  int(binary.BigEndian.Uint32(data[12:16])),
		ObjBytes: int(binary.BigEndian.Uint32(data[16:20])),
		TsBits:   int(data[20]),
	}
	count := int(binary.BigEndian.Uint32(data[21:25]))
	if sc.Number < 1 {
		return nil, fmt.Errorf("wire: bad cycle number %d", sc.Number)
	}
	if sc.Objects < 1 || sc.ObjBytes < 1 || sc.TsBits < 1 || sc.TsBits > 32 {
		return nil, fmt.Errorf("wire: bad subset dimensions n=%d objBytes=%d tsBits=%d", sc.Objects, sc.ObjBytes, sc.TsBits)
	}
	if count > sc.Objects {
		return nil, fmt.Errorf("wire: subset lists %d of %d objects", count, sc.Objects)
	}
	// A frame listing few objects is short whatever n it claims, and
	// Broadcast builds an n-wide view: believe n only if the full
	// matrix cycle it implies could have been broadcast.
	if !matrixCycleFits(sc.Objects, sc.ObjBytes, sc.TsBits) {
		return nil, fmt.Errorf("wire: subset claims n=%d objBytes=%d tsBits=%d, whose full cycle exceeds the %d-byte frame limit",
			sc.Objects, sc.ObjBytes, sc.TsBits, MaxFrameBytes)
	}
	// The frame length is fully determined by the header; reject before
	// allocating.
	perObject := int64(4+sc.ObjBytes) + (int64(sc.Objects)*int64(sc.TsBits)+7)/8
	want := int64(subsetHeaderBytes) + int64(count)*perObject
	if int64(len(data)) != want {
		return nil, fmt.Errorf("wire: subset frame is %d bytes but header describes %d", len(data), want)
	}
	r := NewBitReader(data[subsetHeaderBytes:])
	codec := cmatrix.Codec{Bits: sc.TsBits}
	ref := sc.Number - 1
	for k := 0; k < count; k++ {
		ob, err := r.ReadBytes(4)
		if err != nil {
			return nil, err
		}
		o := int(binary.BigEndian.Uint32(ob))
		if o < 0 || o >= sc.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, sc.Objects)
		}
		if k > 0 && o <= sc.Objs[k-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", k)
		}
		v, err := r.ReadBytes(sc.ObjBytes)
		if err != nil {
			return nil, err
		}
		col := make([]cmatrix.Cycle, sc.Objects)
		for i := range col {
			raw, err := r.ReadBits(sc.TsBits)
			if err != nil {
				return nil, err
			}
			ts := codec.Decode(uint32(raw), ref)
			if ts < 0 {
				return nil, fmt.Errorf("wire: timestamp %d decodes before cycle 0 (corrupt frame)", raw)
			}
			col[i] = ts
		}
		r.Align()
		sc.Objs = append(sc.Objs, o)
		sc.Values = append(sc.Values, v)
		sc.Columns = append(sc.Columns, col)
	}
	return sc, nil
}

// Broadcast rebuilds a full-width client view of the subset cycle:
// subscribed objects carry their exact values and control columns;
// every other column is poisoned to the current cycle number, so any
// validation that touches an unsubscribed object conservatively fails
// (bound >= cycle) rather than silently accepting a read the frame
// never carried. Unsubscribed value slots are nil — the client layer
// must refuse to serve them (Config.Subset). The view shares its
// columns with sc (every poisoned column is one slice), so it costs
// O(n) plus the listed columns rather than n².
func (sc *SubsetCycle) Broadcast() (*bcast.CycleBroadcast, error) {
	cols := make([][]cmatrix.Cycle, sc.Objects)
	values := make([][]byte, sc.Objects)
	poison := make([]cmatrix.Cycle, sc.Objects)
	for i := range poison {
		poison[i] = sc.Number
	}
	for j := range cols {
		cols[j] = poison
	}
	for k, o := range sc.Objs {
		cols[o] = sc.Columns[k]
		values[o] = sc.Values[k]
	}
	m, err := cmatrix.MatrixSharingColumns(cols)
	if err != nil {
		return nil, err
	}
	return &bcast.CycleBroadcast{
		Number: sc.Number,
		Layout: bcast.Layout{
			Objects:       sc.Objects,
			ObjectBits:    int64(sc.ObjBytes) * 8,
			TimestampBits: sc.TsBits,
			Control:       bcast.ControlMatrix,
		},
		Values: values,
		Matrix: m,
	}, nil
}

// ColumnSnapshotOf packages a stored cache column as the protocol
// snapshot a restarted client revalidates against.
func ColumnSnapshotOf(obj int, col []cmatrix.Cycle) protocol.ColumnSnapshot {
	return protocol.ColumnSnapshot{Obj: obj, Col: col}
}
