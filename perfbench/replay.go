package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// The live run hides several stages inside netcast.Server.Step and the
// tuner goroutine. The replay runs the recorded inputs of one traced
// repetition through the same public calls, one stage at a time, so
// each stage gets its own span without disturbing the live timings:
//
//	netcast.step    = server.start_cycle (includes cmatrix.snapshot)
//	                  + wire.encode + dgram.send (datagram leg only)
//	                  + the TCP socket write
//	netcast.deliver = socket transit + dgram.reassemble (datagram leg)
//	                  + wire.decode + the hand-off to the client
//	client.read     = protocol.validate + the value copy
//	                  (+ qcache.put on a cache fill)
//	netcast.server_uplink = the decode half of wire.update_codec
//	                  + server.submit (validation + cmatrix.apply)

// replayStats are the replay's per-layer counts.
type replayStats struct {
	cycles       int
	startAlloc   uint64 // bytes allocated inside StartCycle
	wireAlloc    uint64 // bytes allocated by cycle encode + decode
	frameBytes   int64
	validates    int
	putUserBytes int64
	putFileBytes int64
}

// memCarrier collects datagrams in memory so dgram send and reassembly
// can be timed apart from the socket.
type memCarrier struct{ pkts [][]byte }

func (m *memCarrier) Send(pkt []byte) error {
	m.pkts = append(m.pkts, pkt)
	return nil
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replay re-executes rec through each layer, recording spans in tr. It
// returns an error if any replayed verdict differs from the live one:
// then the replay did not repeat the live work.
func replay(w *workload, rec *record, dir string, tr *tracer) (replayStats, error) {
	var st replayStats
	srv, err := server.New(server.Config{
		Objects: w.n, ObjectBits: int64(w.obj) * 8, TimestampBits: w.ts,
		Algorithm: w.alg, InitialValues: rec.initial,
	})
	if err != nil {
		return st, err
	}
	defer srv.Close()
	var ctl cmatrix.Control
	if srv.Layout().Control == bcast.ControlVector {
		ctl = cmatrix.NewVectorControl(w.n)
	} else {
		ctl = cmatrix.NewDenseControl(w.n)
	}
	var (
		car   = &memCarrier{}
		snd   *dgram.Sender
		reasm *dgram.Reassembler
	)
	if w.udp {
		cfg := dgram.Config{Channel: 1}
		if snd, err = dgram.NewSender(car, cfg, nil); err != nil {
			return st, err
		}
		if reasm, err = dgram.NewReassembler(cfg, nil); err != nil {
			return st, err
		}
	}
	cycles := map[cmatrix.Cycle]*bcast.CycleBroadcast{}
	applied := 0

	// publish replays one cycle start: control apply + snapshot, the
	// server's StartCycle, the cycle codec and the datagram leg.
	publish := func(cycle cmatrix.Cycle) error {
		id := int64(cycle)
		root := tr.open("replay.cycle", time.Now(), -1, id)
		defer func() { tr.close(root, time.Now()) }()
		for ; applied < len(rec.audit) && rec.audit[applied].Cycle < cycle; applied++ {
			c := rec.audit[applied]
			t0 := time.Now()
			ctl.Apply(c.ReadSet, c.WriteSet, c.Cycle)
			tr.add("cmatrix.apply", t0, time.Now(), root, id)
		}
		t0 := time.Now()
		_ = ctl.Snapshot()
		tr.add("cmatrix.snapshot", t0, time.Now(), root, id)

		a0 := allocBytes()
		t0 = time.Now()
		cb := srv.StartCycle()
		t1 := time.Now()
		st.startAlloc += allocBytes() - a0
		tr.add("server.start_cycle", t0, t1, root, id)
		if cb == nil || cb.Number != cycle {
			return fmt.Errorf("replayed StartCycle did not produce cycle %d", cycle)
		}
		cycles[cycle] = cb

		a0 = allocBytes()
		t0 = time.Now()
		frame, err := wire.EncodeCycle(cb)
		t1 = time.Now()
		if err != nil {
			return err
		}
		dcb, err := wire.DecodeCycle(frame)
		t2 := time.Now()
		st.wireAlloc += allocBytes() - a0
		tr.add("wire.encode", t0, t1, root, id)
		tr.add("wire.decode", t1, t2, root, id)
		if err != nil {
			return err
		}
		st.frameBytes += int64(len(frame))
		if dcb.Number != cycle || len(dcb.Values) != len(cb.Values) {
			return fmt.Errorf("cycle %d did not survive the codec", cycle)
		}
		for i := range cb.Values {
			if !bytes.Equal(cb.Values[i], dcb.Values[i]) {
				return fmt.Errorf("cycle %d object %d did not survive the codec", cycle, i)
			}
		}

		if snd != nil {
			car.pkts = car.pkts[:0]
			t0 = time.Now()
			if err := snd.SendCycle(id, [][]byte{frame}); err != nil {
				return err
			}
			t1 = time.Now()
			var got []dgram.Frame
			for _, p := range car.pkts {
				got = append(got, reasm.Ingest(p)...)
			}
			t2 = time.Now()
			tr.add("dgram.send", t0, t1, root, id)
			tr.add("dgram.reassemble", t1, t2, root, id)
			if len(got) != 1 || !bytes.Equal(got[0].Data, frame) {
				return fmt.Errorf("cycle %d: datagram leg returned %d frames", cycle, len(got))
			}
		}
		st.cycles++
		return nil
	}

	if err := publish(1); err != nil {
		return st, err
	}
	for k := 1; k <= len(rec.local); k++ {
		cycle := cmatrix.Cycle(k + 1)
		for i, ops := range rec.local[k-1] {
			txn := srv.Begin()
			for _, o := range ops {
				if o.read {
					_, err = txn.Read(o.obj)
				} else {
					err = txn.Write(o.obj, value(o.token, w.obj))
				}
				if err != nil {
					break
				}
			}
			if err == nil {
				err = txn.Commit()
			}
			if (err == nil) != rec.localOK[k-1][i] {
				return st, fmt.Errorf("cycle %d: replayed server txn %d verdict %v differs from the live one", cycle, i, err)
			}
		}
		for i, req := range rec.uplink[k-1] {
			t0 := time.Now()
			frame := wire.EncodeUpdateRequest(req)
			if _, err := wire.DecodeUpdateRequest(frame); err != nil {
				return st, err
			}
			t1 := time.Now()
			err := srv.SubmitUpdate(req)
			t2 := time.Now()
			tr.add("wire.update_codec", t0, t1, -1, int64(cycle))
			tr.add("server.submit", t1, t2, -1, int64(cycle))
			live := rec.uplinkErr[k-1][i]
			if (err == nil) != (live == nil) || isConflict(err) != isConflict(live) {
				return st, fmt.Errorf("cycle %d: replayed uplink txn %d verdict %v, live %v", cycle, i, err, live)
			}
		}
		if err := publish(cycle); err != nil {
			return st, err
		}
	}

	if err := replayReads(w, rec, cycles, tr, &st); err != nil {
		return st, err
	}
	if w.cache > 0 {
		if err := replayPuts(rec, cycles, filepath.Join(dir, "replay-qcache"), tr, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// snapshotFor is the control information a client validates a read of
// obj in cb with: the retained column (or vector) when caching, the
// cycle's whole snapshot otherwise.
func snapshotFor(w *workload, cb *bcast.CycleBroadcast, obj int) protocol.Snapshot {
	if w.cache > 0 && cb.Matrix != nil {
		return cb.Column(obj)
	}
	return cb.Snapshot()
}

// replayReads re-validates every recorded transaction attempt whose
// reads all fall in replayed cycles, each on a fresh validator.
func replayReads(w *workload, rec *record, cycles map[cmatrix.Cycle]*bcast.CycleBroadcast, tr *tracer, st *replayStats) error {
	byAttempt := map[int][]observed{}
	var order []int
	for _, o := range rec.reads {
		if _, seen := byAttempt[o.attempt]; !seen {
			order = append(order, o.attempt)
		}
		byAttempt[o.attempt] = append(byAttempt[o.attempt], o)
	}
attempts:
	for _, a := range order {
		reads := byAttempt[a]
		for _, o := range reads {
			if cycles[o.cycle] == nil {
				continue attempts
			}
		}
		var v protocol.Validator
		if w.cache > 0 {
			v = &protocol.SnapshotValidator{}
		} else {
			v = protocol.NewValidator(w.alg)
		}
		for _, o := range reads {
			snap := snapshotFor(w, cycles[o.cycle], o.obj)
			t0 := time.Now()
			ok := v.TryRead(snap, o.obj, o.cycle)
			tr.add("protocol.validate", t0, time.Now(), -1, int64(a))
			st.validates++
			if ok != o.ok {
				return fmt.Errorf("attempt %d: replayed validation of object %d in cycle %d gave %v, live %v", a, o.obj, o.cycle, ok, o.ok)
			}
		}
	}
	return nil
}

// replayPuts appends every recorded cache fill (a read served off the
// air) to a fresh disk store.
func replayPuts(rec *record, cycles map[cmatrix.Cycle]*bcast.CycleBroadcast, dir string, tr *tracer, st *replayStats) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := qcache.Open(dir)
	if err != nil {
		return err
	}
	for _, o := range rec.reads {
		cb := cycles[o.cycle]
		if o.hit || cb == nil {
			continue
		}
		val, col := cb.Values[o.obj], protocol.ColumnOf(cb.Snapshot(), o.obj, len(cb.Values)).Col
		t0 := time.Now()
		err := store.Put(o.obj, val, o.cycle, col)
		tr.add("qcache.put", t0, time.Now(), -1, int64(o.attempt))
		if err != nil {
			store.Close()
			return err
		}
		st.putUserBytes += int64(len(val))
	}
	if err := store.Close(); err != nil {
		return err
	}
	st.putFileBytes = dirBytes(dir)
	return nil
}
