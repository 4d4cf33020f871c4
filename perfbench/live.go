package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
)

// awaitTimeout bounds the wait for one cycle; a cycle not delivered in
// time is a failed operation and ends the repetition.
const awaitTimeout = 10 * time.Second

// setupsPerRep is how many times each repetition builds the stack.
const setupsPerRep = 3

// rig is one live stack: broadcast server, network server, tuner,
// client and (optionally) uplink and disk store, in this process on
// loopback sockets.
type rig struct {
	w     *workload
	reg   *obs.Registry
	srv   *server.Server
	ns    *netcast.Server
	tuner interface{ Close() error }
	car   *dgram.UDPCarrier
	cl    *client.Client
	up    *recUplink
	store *qcache.Store
	dir   string

	dog      *time.Timer
	timedOut atomic.Bool
}

// recUplink forwards update requests over the TCP uplink and, during a
// traced repetition, keeps each request for the replay.
type recUplink struct {
	up   *netcast.Uplink
	reqs *[]protocol.UpdateRequest
}

func (u *recUplink) SubmitUpdate(req protocol.UpdateRequest) error {
	if u.reqs != nil {
		*u.reqs = append(*u.reqs, req)
	}
	return u.up.SubmitUpdate(req)
}

// observed is one read validation as the client reported it.
type observed struct {
	attempt int
	obj     int
	cycle   cmatrix.Cycle
	hit     bool
	ok      bool
}

// setup builds the stack and tunes the client in: it returns once the
// client holds the first broadcast cycle.
func setup(w *workload, initial [][]byte, dir string, audit bool, observe func(int, cmatrix.Cycle, bool, bool)) (*rig, error) {
	r := &rig{w: w, reg: obs.NewRegistry(), dir: dir}
	var err error
	r.srv, err = server.New(server.Config{
		Objects: w.n, ObjectBits: int64(w.obj) * 8, TimestampBits: w.ts,
		Algorithm: w.alg, InitialValues: initial, Audit: audit, Obs: r.reg,
	})
	if err != nil {
		return nil, err
	}
	r.ns, err = netcast.Serve(r.srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	if err := r.tuneIn(observe); err != nil {
		r.close()
		return nil, err
	}
	if _, _, err := r.step(); err != nil {
		r.close()
		return nil, err
	}
	if _, err := r.await(1); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) tuneIn(observe func(int, cmatrix.Cycle, bool, bool)) error {
	w := r.w
	var sub *bcast.Subscription
	if w.udp {
		src, err := dgram.ListenUDP("127.0.0.1:0")
		if err != nil {
			return err
		}
		r.car, err = dgram.DialUDP(src.LocalAddr().String())
		if err != nil {
			src.Close()
			return err
		}
		cfg := dgram.Config{Channel: 1}
		snd, err := dgram.NewSender(r.car, cfg, r.reg)
		if err != nil {
			src.Close()
			return err
		}
		r.ns.AttachDatagram(snd)
		dt, err := netcast.TuneDatagram(src, cfg, r.reg)
		if err != nil {
			src.Close()
			return err
		}
		r.tuner, sub = dt, dt.Subscribe(4)
	} else {
		t, err := netcast.Tune(r.ns.BroadcastAddr())
		if err != nil {
			return err
		}
		r.tuner, sub = t, t.Subscribe(4)
		// The server registers the subscriber on its accept goroutine;
		// the first Step must find it there.
		for deadline := time.Now().Add(awaitTimeout); r.ns.Subscribers() == 0; {
			if time.Now().After(deadline) {
				return errors.New("tuner never registered with the server")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	var err error
	if w.cache > 0 {
		if r.store, err = qcache.Open(r.dir); err != nil {
			return err
		}
	}
	r.cl = client.New(client.Config{
		Algorithm: w.alg, CacheCurrency: w.cache, Store: r.store,
		Obs: r.reg, ObserveRead: observe,
	}, sub)
	r.dog = time.AfterFunc(time.Hour, func() {
		r.timedOut.Store(true)
		r.cl.Cancel()
	})
	r.dog.Stop()
	if w.uplinkTxns > 0 {
		up, err := netcast.DialUplink(r.ns.UplinkAddr())
		if err != nil {
			return err
		}
		r.up = &recUplink{up: up}
	}
	return nil
}

func (r *rig) step() (time.Time, time.Time, error) {
	t0 := time.Now()
	_, err := r.ns.Step()
	return t0, time.Now(), err
}

// await waits until the client holds cycle want.
func (r *rig) await(want cmatrix.Cycle) (*bcast.CycleBroadcast, error) {
	r.dog.Reset(awaitTimeout)
	cb, ok := r.cl.AwaitCycle()
	r.dog.Stop()
	switch {
	case r.timedOut.Load():
		return nil, fmt.Errorf("cycle %d not delivered within %v", want, awaitTimeout)
	case !ok:
		return nil, errors.New("tuner closed")
	case cb.Number != want:
		return nil, fmt.Errorf("client holds cycle %d, want %d", cb.Number, want)
	}
	return cb, nil
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	if r.dog != nil {
		r.dog.Stop()
	}
	if r.up != nil {
		r.up.up.Close()
	}
	if r.tuner != nil {
		r.tuner.Close()
	}
	r.ns.Close()
	if r.car != nil {
		r.car.Close()
	}
	r.srv.Close()
	if r.store != nil {
		r.store.Close()
	}
}

// repResult is what one repetition measured.
type repResult struct {
	setups []float64     // seconds per set-up
	loop   time.Duration // the closed loop over w.cycles cycles

	cycles  int
	commits int // server-local plus uplink

	readTxn    series // ms, Begin of the first attempt to Commit
	visible    series // ms, commit acknowledgement to client holding the cycle
	uplinkRTT  series // µs, UpdateTxn.Commit over the uplink
	peakHeapMB float64

	serverUplinkUs float64       // mean server-side uplink handling (netcast_uplink_ns)
	cpu            time.Duration // process CPU time (user + system) of the loop

	counts counts
	ops    int64 // operations attempted
	fails  []string
}

// series is one repetition's samples of a timing, each tagged with the
// cycle it completed in. Samples of one cycle are not independent: they
// share its delivery, or finish in one batch of reads.
type series struct {
	v   []float64
	cyc []cmatrix.Cycle
}

func (s *series) add(v float64, c cmatrix.Cycle) {
	s.v = append(s.v, v)
	s.cyc = append(s.cyc, c)
}

// counts are the figures two runs with one seed must reproduce exactly.
type counts struct {
	AirBytes        int64
	Attempts        int64 // read-only attempts finished (committed or aborted)
	Aborts          int64 // read-only attempts aborted by the read-condition
	UplinkSubmitted int64
	UplinkRejected  int64
	UplinkAborted   int64 // client update txns aborted by a read before submit
	Reads           int64
	CacheHits       int64
	ReadAborts      int64
	Packets         int64
	RepairPackets   int64
	QcacheBytes     int64
	QcacheSegments  int
	Conflicts       int64
	FramesRepaired  int64
	FramesLost      int64
}

// record collects the live inputs a traced repetition hands to the
// per-layer replay.
type record struct {
	window    int                        // loop cycles recorded
	local     [][][]op                   // per cycle, per server txn
	localOK   [][]bool                   // live verdicts
	uplink    [][]protocol.UpdateRequest // per cycle, in submit order
	uplinkErr [][]error                  // live verdicts
	reads     []observed                 // read validations, in order
	audit     []cmatrix.Commit           // the server's commit log
	initial   [][]byte                   // database seed
}

// fill takes the layer counters accumulated since set-up finished.
func (c *counts) fill(w *workload, r *rig, base map[string]int64) {
	now := r.reg.Snapshot().Counters
	d := func(name string) int64 { return now[name] - base[name] }
	if w.udp {
		c.AirBytes = d(dgram.CtrTxBytes)
	} else {
		c.AirBytes = d("netcast_tx_bytes")
	}
	st := r.cl.Stats()
	c.Reads, c.CacheHits, c.ReadAborts = st.Reads, st.CacheHits, st.ReadAborts
	c.Packets = d(dgram.CtrPacketsTx)
	c.RepairPackets = d(dgram.CtrRepairTx)
	c.FramesRepaired = d(dgram.CtrFramesRepaired)
	c.FramesLost = d(dgram.CtrFramesLost)
	c.Conflicts = d("server_conflict_aborts")
	if r.store != nil {
		c.QcacheBytes = dirBytes(r.dir)
		c.QcacheSegments, _ = r.store.Segments() // a listing error shows as 0 segments
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return -1
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// heapSampler tracks the highest in-use heap (HeapInuse: live objects
// plus unused space in in-use spans) without stopping the world.
type heapSampler struct {
	s      []metrics.Sample
	peakMB float64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	mb := float64(h.s[0].Value.Uint64()+h.s[1].Value.Uint64()) / (1 << 20)
	h.peakMB = max(h.peakMB, mb)
}
