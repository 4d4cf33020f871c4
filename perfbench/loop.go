package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// slot is one in-flight read-only transaction.
type slot struct {
	objs    []int
	vals    [][]byte
	txn     *client.ReadTxn
	begin   time.Time // Begin of the first attempt
	attempt int
	from    cmatrix.Cycle // the first cycle the slot may begin in
}

// loop is the state of one repetition's closed loop.
type loop struct {
	w   *workload
	g   *gen
	r   *rig
	db  *shadow
	tr  *tracer // nil = untraced
	rec *record // nil = not recorded
	res *repResult

	slots []slot
	acks  []time.Time // commit acknowledgements of the current cycle
	// attempt numbers transaction attempts; reading names the one whose
	// reads the client is validating now.
	attempt, reading int
}

func (d *loop) fail(format string, args ...any) {
	d.res.fails = append(d.res.fails, fmt.Sprintf(format, args...))
}

// runRep sets up a fresh stack, drives w.cycles closed-loop cycles and
// tears the stack down.
func runRep(w *workload, seed uint64, rep int, dir string, tr *tracer, rec *record) repResult {
	var res repResult
	d := &loop{w: w, g: newGen(w, seed, rep), tr: tr, rec: rec, res: &res}
	initTok := make([]uint64, w.n)
	initial := make([][]byte, w.n)
	for i := range initial {
		initTok[i] = d.g.newToken()
		initial[i] = value(initTok[i], w.obj)
	}
	d.db = newShadow(w.n, w.obj, initTok)
	var observe func(int, cmatrix.Cycle, bool, bool)
	if rec != nil {
		rec.initial = initial
		rec.window = min(w.replay, w.cycles)
		observe = func(obj int, c cmatrix.Cycle, hit, ok bool) {
			rec.reads = append(rec.reads, observed{d.reading, obj, c, hit, ok})
		}
	}

	// Set up setupsPerRep times, keeping the last stack: set-up is short
	// next to the loop, and its median wants several samples.
	storeDir := filepath.Join(dir, fmt.Sprintf("qcache-%d", rep))
	defer os.RemoveAll(storeDir)
	for i := 0; i < setupsPerRep; i++ {
		if d.r != nil {
			d.r.close()
		}
		if err := os.RemoveAll(storeDir); err != nil {
			d.fail("%v", err)
			return res
		}
		t0 := time.Now()
		var err error
		d.r, err = setup(w, initial, storeDir, rec != nil, observe)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		res.ops++
		if err != nil {
			d.fail("setup: %v", err)
			return res
		}
	}
	base := d.r.reg.Snapshot().Counters

	// Slot i begins in loop cycle i mod readLen, so read-only
	// transactions finish spread over the cycles, not in one batch
	// every readLen cycles.
	d.slots = make([]slot, w.readTxns)
	for i := range d.slots {
		d.slots[i].objs = d.g.objects(w.readLen)
		d.slots[i].from = cmatrix.Cycle(2 + i%w.readLen)
	}
	// Collect the garbage of the set-ups and of the previous
	// repetition's stack, so the loop pays only for its own.
	runtime.GC()
	heap := newHeapSampler()
	cpu0 := cpuTime()
	loopStart := time.Now()
	for k := 1; k <= w.cycles && len(res.fails) == 0; k++ {
		cycle := cmatrix.Cycle(k + 1) // cycle 1 went out during set-up
		cyc := tr.open("cycle", time.Now(), -1, int64(cycle))
		d.acks = d.acks[:0]
		d.updates(cycle, cyc, rec != nil && k <= rec.window)
		if !d.broadcast(cycle, cyc) {
			break
		}
		heap.sample()
		d.reads(cycle, cyc)
		tr.close(cyc, time.Now())
	}
	res.loop = time.Since(loopStart)
	res.cpu = cpuTime() - cpu0
	res.peakHeapMB = heap.peakMB
	if rec != nil {
		rec.audit = d.r.srv.AuditLog()
	}
	if h := d.r.reg.Snapshot().Histograms["netcast_uplink_ns"]; h.Total() > 0 {
		res.serverUplinkUs = float64(h.Sum) / float64(h.Total()) / 1e3
	}
	d.r.close()
	res.counts.fill(w, d.r, base)
	return res
}

// updates runs step 1: this cycle's server-local update transactions,
// then the client's over the uplink. recording keeps them for the
// replay.
func (d *loop) updates(cycle cmatrix.Cycle, cyc int32, recording bool) {
	w, r, res := d.w, d.r, d.res
	var localOps [][]op
	var localOK []bool
	for i := 0; i < w.serverTxns; i++ {
		ops := d.g.updateOps(w.serverOps)
		txn := r.srv.Begin()
		var err error
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
		ts := time.Now()
		if err == nil {
			err = txn.Commit()
		}
		te := time.Now()
		d.tr.add("server.commit", ts, te, cyc, int64(cycle))
		res.ops++
		localOps = append(localOps, ops)
		localOK = append(localOK, err == nil)
		if err != nil {
			d.fail("cycle %d: server txn: %v", cycle, err)
			continue
		}
		d.committed(ops, cycle, te)
	}

	var upReqs []protocol.UpdateRequest
	var upErrs []error
	if recording && r.up != nil {
		r.up.reqs = &upReqs
	}
	for i := 0; i < w.uplinkTxns; i++ {
		d.attempt++
		d.reading = d.attempt
		ops := d.g.updateOps(w.uplinkOps)
		ts := time.Now()
		ut := r.cl.BeginUpdate()
		var err error
		for _, o := range ops {
			if o.read {
				_, err = ut.Read(o.obj)
			} else {
				err = ut.Write(o.obj, value(o.token, w.obj))
			}
			if err != nil {
				break
			}
		}
		res.ops++
		if errors.Is(err, client.ErrInconsistentRead) {
			res.counts.UplinkAborted++
			d.tr.add("client.update_txn", ts, time.Now(), cyc, int64(cycle))
			continue
		}
		if err != nil {
			d.fail("cycle %d: client update: %v", cycle, err)
			continue
		}
		uc := time.Now()
		err = ut.Commit(r.up)
		te := time.Now()
		ui := d.tr.add("client.update_txn", ts, te, cyc, int64(cycle))
		d.tr.add("netcast.uplink", uc, te, ui, int64(cycle))
		res.uplinkRTT.add(float64(te.Sub(uc).Nanoseconds())/1e3, cycle)
		res.counts.UplinkSubmitted++
		upErrs = append(upErrs, err)
		switch {
		case isConflict(err):
			res.counts.UplinkRejected++
		case err != nil:
			d.fail("cycle %d: uplink commit: %v", cycle, err)
		default:
			d.committed(ops, cycle, te)
		}
	}
	if r.up != nil {
		r.up.reqs = nil
	}
	if recording {
		d.rec.local = append(d.rec.local, localOps)
		d.rec.localOK = append(d.rec.localOK, localOK)
		d.rec.uplink = append(d.rec.uplink, upReqs)
		d.rec.uplinkErr = append(d.rec.uplinkErr, upErrs)
	}
}

// committed books an acknowledged transaction: its writes are on the
// air from cycle on.
func (d *loop) committed(ops []op, cycle cmatrix.Cycle, ack time.Time) {
	d.res.commits++
	d.acks = append(d.acks, ack)
	for _, o := range ops {
		if !o.read {
			d.db.commit(o.obj, cycle, o.token)
		}
	}
}

// broadcast runs steps 2 and 3: Step, then wait until the client holds
// the cycle. It reports false when the repetition cannot go on.
func (d *loop) broadcast(cycle cmatrix.Cycle, cyc int32) bool {
	ss, se, err := d.r.step()
	d.tr.add("netcast.step", ss, se, cyc, int64(cycle))
	d.res.ops++
	if err != nil {
		d.fail("cycle %d: step: %v", cycle, err)
		return false
	}
	as := time.Now()
	_, err = d.r.await(cycle)
	tv := time.Now()
	di := d.tr.add("netcast.deliver", se, tv, cyc, int64(cycle))
	d.tr.add("client.await", as, tv, di, int64(cycle))
	if err != nil {
		d.fail("%v", err)
		return false
	}
	d.res.cycles++
	for _, a := range d.acks {
		d.res.visible.add(float64(tv.Sub(a).Nanoseconds())/1e6, cycle)
	}
	return true
}

// reads runs step 4: one read for each in-flight read-only transaction.
// A read the read-condition rejects restarts its transaction on the
// next cycle; a finished transaction is checked and replaced.
func (d *loop) reads(cycle cmatrix.Cycle, cyc int32) {
	res := d.res
	for i := range d.slots {
		s := &d.slots[i]
		if cycle < s.from {
			continue
		}
		if s.txn == nil {
			d.attempt++
			s.attempt = d.attempt
			s.txn = d.r.cl.BeginReadOnly()
			s.vals = s.vals[:0]
			if s.begin.IsZero() {
				s.begin = time.Now()
			}
		}
		d.reading = s.attempt
		rs := time.Now()
		v, err := s.txn.Read(s.objs[len(s.vals)])
		d.tr.add("client.read", rs, time.Now(), cyc, int64(s.attempt))
		res.ops++
		if errors.Is(err, client.ErrInconsistentRead) {
			res.counts.Attempts++
			res.counts.Aborts++
			s.txn = nil
			continue
		}
		if err != nil {
			d.fail("cycle %d: read: %v", cycle, err)
			continue
		}
		s.vals = append(s.vals, v)
		if len(s.vals) < len(s.objs) {
			continue
		}
		set, err := s.txn.Commit()
		now := time.Now()
		res.counts.Attempts++
		if err == nil {
			err = checkReads(d.db, s.objs, s.vals, set)
		}
		if err != nil {
			d.fail("cycle %d: read-only txn: %v", cycle, err)
		}
		d.tr.add("txn.read_only", s.begin, now, -1, int64(s.attempt))
		res.readTxn.add(float64(now.Sub(s.begin).Nanoseconds())/1e6, cycle)
		*s = slot{objs: d.g.objects(d.w.readLen), vals: s.vals[:0]}
	}
}

// isConflict reports whether err is the server's optimistic-validation
// rejection. The uplink reply carries only the reason text, so a verdict
// that crossed the wire is recognised by the sentinel's message.
func isConflict(err error) bool {
	return err != nil && (errors.Is(err, server.ErrConflict) || strings.Contains(err.Error(), server.ErrConflict.Error()))
}

// checkReads compares every value a read-only transaction returned with
// the committed database as of the cycle the read-set names.
func checkReads(db *shadow, objs []int, vals [][]byte, set []protocol.ReadAt) error {
	if len(set) != len(objs) {
		return fmt.Errorf("read-set has %d entries, %d reads made", len(set), len(objs))
	}
	for i, ra := range set {
		if ra.Obj != objs[i] {
			return fmt.Errorf("read-set entry %d names object %d, read %d", i, ra.Obj, objs[i])
		}
		if !db.check(ra.Obj, ra.Cycle, vals[i]) {
			return fmt.Errorf("object %d read in cycle %d returned a value never committed as of that cycle", ra.Obj, ra.Cycle)
		}
	}
	return nil
}
