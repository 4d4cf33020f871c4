package wire

import (
	"encoding/binary"
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// Encoding layout of one broadcast cycle (all multi-byte integers
// big-endian):
//
//	magic     4 bytes  "BCC1"
//	cycle     8 bytes  cycle number (unwrapped, for framing; the
//	                   timestamps inside the control info are wrapped)
//	objects   4 bytes  n
//	objBytes  4 bytes  bytes per object value slot
//	tsBits    1 byte   timestamp width (0 under ControlNone)
//	control   1 byte   bcast.ControlKind
//	groups    4 bytes  g (ControlGrouped only, else 0)
//	then, per object j in id order:
//	  value   objBytes bytes (shorter values zero-padded)
//	  control column, bit-packed wrapped timestamps:
//	    matrix:  n entries; vector: 1 entry; grouped: g entries; none: 0
//	  (padded to a byte boundary per object)
//
// Decoding unwraps each timestamp against the broadcast's cycle number:
// a control entry in cycle N is a commit cycle <= N-1, so the reference
// for unwrapping is N-1. Values older than max_cycles alias upward,
// which can only cause extra aborts, never false acceptance — the same
// conservativeness the paper's modulo arithmetic has.

// Magic identifies a cycle frame.
var Magic = [4]byte{'B', 'C', 'C', '1'}

const headerBytes = 4 + 8 + 4 + 4 + 1 + 1 + 4

// MaxFrameBytes is the largest frame the transports carry: netcast's
// stream framing and dgram's reassembler both refuse anything longer.
const MaxFrameBytes = 16 << 20

// matrixCycleFits reports whether a full matrix-control cycle of n
// objects (each objBytes long, tsBits per control entry) fits in one
// MaxFrameBytes frame — the largest database a server can put on the
// air, and so the largest n a decoder may believe.
func matrixCycleFits(n, objBytes, tsBits int) bool {
	perObject := int64(objBytes) + (int64(n)*int64(tsBits)+7)/8
	if perObject > MaxFrameBytes {
		return false
	}
	return int64(headerBytes)+int64(n)*perObject <= MaxFrameBytes
}

// EncodeCycle serializes a broadcast cycle. Object values longer than
// the layout's object size are rejected; shorter ones are zero-padded
// (their length is not preserved — broadcast slots are fixed-width).
func EncodeCycle(cb *bcast.CycleBroadcast) ([]byte, error) {
	l := cb.Layout
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(cb.Values) != l.Objects {
		return nil, fmt.Errorf("wire: %d values for %d objects", len(cb.Values), l.Objects)
	}
	objBytes := int((l.ObjectBits + 7) / 8)
	w := NewBitWriter()
	var hdr [headerBytes]byte
	copy(hdr[0:4], Magic[:])
	binary.BigEndian.PutUint64(hdr[4:12], uint64(cb.Number))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(l.Objects))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(objBytes))
	hdr[20] = byte(l.TimestampBits)
	hdr[21] = byte(l.Control)
	if l.Control == bcast.ControlGrouped {
		binary.BigEndian.PutUint32(hdr[22:26], uint32(l.Groups))
	}
	w.WriteBytes(hdr[:])

	codec := cmatrix.Codec{Bits: l.TimestampBits}
	writeTS := func(c cmatrix.Cycle) {
		w.WriteBits(uint64(codec.Encode(c)), l.TimestampBits)
	}
	for j := 0; j < l.Objects; j++ {
		v := cb.Values[j]
		if len(v) > objBytes {
			return nil, fmt.Errorf("wire: object %d value is %d bytes, slot holds %d", j, len(v), objBytes)
		}
		slot := make([]byte, objBytes)
		copy(slot, v)
		w.WriteBytes(slot)
		switch l.Control {
		case bcast.ControlMatrix:
			if cb.Matrix == nil {
				return nil, fmt.Errorf("wire: matrix layout without matrix")
			}
			for i := 0; i < l.Objects; i++ {
				writeTS(cb.Matrix.At(i, j))
			}
		case bcast.ControlVector:
			if cb.Vector == nil {
				return nil, fmt.Errorf("wire: vector layout without vector")
			}
			writeTS(cb.Vector.At(j))
		case bcast.ControlGrouped:
			if cb.Grouped == nil {
				return nil, fmt.Errorf("wire: grouped layout without grouped matrix")
			}
			// The column for object j under grouping: the guard values
			// MC(i, group(j)) for every i would be n entries; instead the
			// grouped protocol broadcasts each object's row of g entries,
			// from which clients reconstruct bounds for any (i, j) pair.
			for s := 0; s < l.Groups; s++ {
				writeTS(cb.Grouped.At(j, s))
			}
		}
		w.Align()
	}
	return w.Bytes(), nil
}

// DecodeCycle reconstructs a broadcast cycle from its encoding. The
// returned broadcast's control structures hold unwrapped cycle numbers
// (conservatively aliased when older than the codec window, as above).
func DecodeCycle(data []byte) (*bcast.CycleBroadcast, error) {
	if len(data) < headerBytes {
		return nil, ErrShortBuffer
	}
	if [4]byte(data[0:4]) != Magic {
		return nil, fmt.Errorf("wire: bad magic %q", data[0:4])
	}
	number := cmatrix.Cycle(binary.BigEndian.Uint64(data[4:12]))
	objects := int(binary.BigEndian.Uint32(data[12:16]))
	objBytes := int(binary.BigEndian.Uint32(data[16:20]))
	tsBits := int(data[20])
	control := bcast.ControlKind(data[21])
	groups := int(binary.BigEndian.Uint32(data[22:26]))

	layout := bcast.Layout{
		Objects:       objects,
		ObjectBits:    int64(objBytes) * 8,
		TimestampBits: tsBits,
		Control:       control,
		Groups:        groups,
	}
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("wire: decoded layout invalid: %w", err)
	}
	if number < 1 {
		return nil, fmt.Errorf("wire: bad cycle number %d", number)
	}

	entriesPerObject := 0
	switch control {
	case bcast.ControlMatrix:
		entriesPerObject = objects
	case bcast.ControlVector:
		entriesPerObject = 1
	case bcast.ControlGrouped:
		entriesPerObject = groups
	}
	// Reject implausible headers before allocating anything: the frame
	// length is fully determined by the header.
	perObjectBytes := int64(objBytes) + (int64(entriesPerObject)*int64(tsBits)+7)/8
	want := int64(headerBytes) + int64(objects)*perObjectBytes
	if int64(len(data)) != want {
		return nil, fmt.Errorf("wire: frame is %d bytes but header describes %d", len(data), want)
	}

	cb := &bcast.CycleBroadcast{
		Number: number,
		Layout: layout,
		Values: make([][]byte, objects),
	}
	r := NewBitReader(data[headerBytes:])
	ref := number - 1 // control entries are commits before this cycle
	var codec cmatrix.Codec
	if tsBits > 0 {
		codec = cmatrix.Codec{Bits: tsBits}
	}
	readTS := func() (cmatrix.Cycle, error) {
		raw, err := r.ReadBits(tsBits)
		if err != nil {
			return 0, err
		}
		ts := codec.Decode(uint32(raw), ref)
		if ts < 0 {
			return 0, fmt.Errorf("wire: timestamp %d decodes before cycle 0 (corrupt frame)", raw)
		}
		return ts, nil
	}
	perObject := make([][]cmatrix.Cycle, objects)
	for j := 0; j < objects; j++ {
		v, err := r.ReadBytes(objBytes)
		if err != nil {
			return nil, err
		}
		cb.Values[j] = v
		if entriesPerObject > 0 {
			row := make([]cmatrix.Cycle, entriesPerObject)
			for k := range row {
				ts, err := readTS()
				if err != nil {
					return nil, err
				}
				row[k] = ts
			}
			perObject[j] = row
		}
		r.Align()
	}

	var err error
	switch control {
	case bcast.ControlMatrix:
		cb.Matrix, err = cmatrix.MatrixFromColumns(perObject)
	case bcast.ControlVector:
		entries := make([]cmatrix.Cycle, objects)
		for j, row := range perObject {
			entries[j] = row[0]
		}
		cb.Vector, err = cmatrix.VectorFromEntries(entries)
	case bcast.ControlGrouped:
		// The wire format assumes the server's contiguous uniform
		// partition; both ends derive it from (n, g).
		cb.Grouped, err = cmatrix.GroupedFromRows(cmatrix.UniformPartition(objects, groups), perObject)
	}
	if err != nil {
		return nil, err
	}
	return cb, nil
}
