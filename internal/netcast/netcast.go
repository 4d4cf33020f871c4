// Package netcast puts the broadcast runtime on real sockets: the
// server streams encoded broadcast cycles to any number of TCP
// subscribers (the "air"), and accepts update transactions on a
// separate uplink port. Clients tune in with Tune, which decodes frames
// into an in-process bcast.Medium so the ordinary client runtime
// (internal/client) works unchanged on top of it.
//
// The broadcast stream is one-way, exactly like the medium it models:
// the server never reads from broadcast connections, and a subscriber
// that cannot keep up is disconnected rather than allowed to apply
// backpressure.
package netcast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// maxFrame bounds accepted frame sizes (16 MiB is far above any real
// cycle or uplink request).
const maxFrame = wire.MaxFrameBytes

// WriteFrame writes one length-prefixed frame in the broadcast stream's
// wire format (4-byte big-endian length, then the payload). Exported so
// frame-level middleboxes — the faultair proxy, capture tools — can
// speak the stream format without decoding cycles.
func WriteFrame(w io.Writer, data []byte) error { return writeFrame(w, data) }

// ReadFrame reads one length-prefixed frame, rejecting frames above the
// stream's size limit.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r) }

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("netcast: frame of %d bytes exceeds limit", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readFrame reads a length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netcast: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Options tune the network server.
type Options struct {
	// DeltaEvery, when positive, enables incremental transmission
	// (matrix layouts only): cycles are sent as delta frames over the
	// previous cycle, with a full frame every DeltaEvery cycles so late
	// tuners and subscribers that missed a frame can resynchronize.
	DeltaEvery int

	// RefreshEvery, when positive, controls delta transmission of
	// control columns in program mode (servers carrying an airsched
	// program): each object's column is sent as a delta against its own
	// previous broadcast occurrence, with a full refresh every
	// RefreshEvery occurrences. Zero sends every column in full.
	RefreshEvery int

	// SparseGrouped switches grouped-layout servers to the sparse BCG1
	// frame format: each object's MC row is encoded sparsely (or densely
	// when that is smaller), and the partition travels only in
	// partition-bearing frames — the first frame, every frame after a
	// regroup epoch change, and every PartitionEvery cycles. Required
	// when the server regroups (RegroupEvery > 0): only BCG1 can carry
	// the resulting non-uniform partitions.
	SparseGrouped bool

	// PartitionEvery, when positive with SparseGrouped, re-embeds the
	// partition every PartitionEvery cycles so late tuners can decode
	// without waiting for a regroup. Zero embeds it only on the first
	// frame and at epoch changes.
	PartitionEvery int

	// WriteTimeout bounds each subscriber socket write; a subscriber
	// that cannot drain a frame within it is reaped (the broadcast never
	// waits for a listener). Zero means the defaults: 2s in classic
	// mode, 10s in program mode (whole major cycles per Step).
	WriteTimeout time.Duration

	// Obs receives the transmission metrics (netcast_full_bytes,
	// netcast_delta_bytes, netcast_grouped_bytes, netcast_frames_sent,
	// netcast_tx_bytes, netcast_overflow_reaps, subscriber churn and the
	// netcast_subscribers gauge). Nil uses the broadcast server's
	// registry, so one process naturally has one registry.
	Obs *obs.Registry
}

// Server exposes a broadcast server over TCP.
type Server struct {
	bsrv *server.Server
	opts Options

	broadcastLn net.Listener
	uplinkLn    net.Listener

	// Program-mode transmission state (nil timeline = classic
	// one-frame-per-cycle mode). seqs and prevCols track each object's
	// occurrence count and last transmitted column for delta chaining;
	// they are touched only from Step, which is not concurrent.
	timeline *airsched.Timeline
	seqs     []uint32
	prevCols [][]cmatrix.Cycle

	mu   sync.Mutex
	subs map[net.Conn]bool
	// subSets holds each subset subscriber's normalized object filter
	// (absent = full feed). Entries appear when a subscriber's BCQ2
	// frame is accepted and vanish with the connection.
	subSets map[net.Conn][]int
	closed  bool
	prev    *bcast.CycleBroadcast
	wg      sync.WaitGroup

	// Sparse-grouped transmission state (Step only, not concurrent):
	// which regroup epoch the last frame named, and whether any
	// partition-bearing frame has gone out yet.
	groupedEpoch uint64
	sentPart     bool

	// Transmission accounting (bytes of cycle payload, framing
	// excluded) for the delta-bandwidth analysis, plus subscriber
	// churn. Registry-backed so TransmittedBytes and /metrics can
	// never disagree.
	cFullBytes    *obs.Counter
	cDeltaBytes   *obs.Counter
	cGroupedBytes *obs.Counter
	cFramesSent   *obs.Counter
	cSubsAdded    *obs.Counter
	cSubsDropped  *obs.Counter
	cTxBytes      *obs.Counter
	cReaps        *obs.Counter
	cSubsetBytes  *obs.Counter
	cSubsetSubs   *obs.Counter
	gSubs         *obs.Gauge
	hUplinkNs     *obs.Histogram
	reg           *obs.Registry

	// Optional datagram broadcast (AttachDatagram): every cycle's frames
	// also go out once over the connectionless datapath. Step-only.
	dsender *dgram.Sender
}

// Serve starts listening on the two addresses (e.g. "127.0.0.1:0") and
// begins accepting subscribers and uplink connections. Broadcast cycles
// are produced by calls to Step (or by RunTicker). The F-Matrix-No
// layout broadcasts no control information and therefore cannot be
// served over a real wire.
func Serve(bsrv *server.Server, broadcastAddr, uplinkAddr string) (*Server, error) {
	return ServeOptions(bsrv, broadcastAddr, uplinkAddr, Options{})
}

// ServeOptions is Serve with explicit Options.
func ServeOptions(bsrv *server.Server, broadcastAddr, uplinkAddr string, opts Options) (*Server, error) {
	if bsrv.Layout().Control == bcast.ControlNone {
		return nil, errors.New("netcast: the F-Matrix-No layout is a simulation-only ideal and cannot be broadcast")
	}
	if opts.DeltaEvery > 0 && bsrv.Layout().Control != bcast.ControlMatrix {
		return nil, errors.New("netcast: delta transmission requires the matrix layout")
	}
	prog := bsrv.Program()
	if prog != nil && opts.DeltaEvery > 0 {
		return nil, errors.New("netcast: cycle-level deltas (DeltaEvery) do not apply to program mode; use RefreshEvery")
	}
	if opts.SparseGrouped {
		if bsrv.Layout().Control != bcast.ControlGrouped {
			return nil, errors.New("netcast: sparse grouped transmission requires the grouped layout")
		}
		if prog != nil {
			return nil, errors.New("netcast: sparse grouped transmission does not apply to program mode")
		}
	}
	if bsrv.RegroupEvery() > 0 && !opts.SparseGrouped {
		return nil, errors.New("netcast: a regrouping server needs SparseGrouped (the dense grouped format assumes the uniform partition)")
	}
	if opts.RefreshEvery > 0 && prog == nil {
		return nil, errors.New("netcast: RefreshEvery requires a server with a broadcast program")
	}
	bl, err := net.Listen("tcp", broadcastAddr)
	if err != nil {
		return nil, err
	}
	ul, err := net.Listen("tcp", uplinkAddr)
	if err != nil {
		bl.Close()
		return nil, err
	}
	s := &Server{bsrv: bsrv, opts: opts, broadcastLn: bl, uplinkLn: ul,
		subs: map[net.Conn]bool{}, subSets: map[net.Conn][]int{}}
	reg := opts.Obs
	if reg == nil {
		reg = bsrv.Obs()
	}
	s.reg = reg
	s.cFullBytes = reg.Counter("netcast_full_bytes")
	s.cDeltaBytes = reg.Counter("netcast_delta_bytes")
	s.cGroupedBytes = reg.Counter("netcast_grouped_bytes")
	s.cFramesSent = reg.Counter("netcast_frames_sent")
	s.cSubsAdded = reg.Counter("netcast_subs_added")
	s.cSubsDropped = reg.Counter("netcast_subs_dropped")
	s.cTxBytes = reg.Counter("netcast_tx_bytes")
	s.cReaps = reg.Counter("netcast_overflow_reaps")
	s.cSubsetBytes = reg.Counter("netcast_subset_bytes")
	s.cSubsetSubs = reg.Counter("netcast_subset_subs")
	s.gSubs = reg.Gauge("netcast_subscribers")
	// Uplink commit latency (decode + server-side validation + commit),
	// nanoseconds: ~1 µs .. ~0.5 s. The soak harness bounds its p99.
	s.hUplinkNs = reg.Histogram("netcast_uplink_ns", obs.Pow2Buckets(10, 20))
	if prog != nil {
		s.timeline = airsched.NewTimeline(prog)
		s.seqs = make([]uint32, bsrv.Layout().Objects)
		s.prevCols = make([][]cmatrix.Cycle, bsrv.Layout().Objects)
	}
	s.wg.Add(2)
	go s.acceptBroadcast()
	go s.acceptUplink()
	return s, nil
}

// TransmittedBytes reports cumulative cycle payload bytes sent as full
// frames and as delta frames (per subscriber transmission counted once;
// the broadcast medium reaches everyone with one transmission).
func (s *Server) TransmittedBytes() (full, delta int64) {
	return s.cFullBytes.Load(), s.cDeltaBytes.Load()
}

// BroadcastAddr reports the broadcast listener's address.
func (s *Server) BroadcastAddr() string { return s.broadcastLn.Addr().String() }

// UplinkAddr reports the uplink listener's address.
func (s *Server) UplinkAddr() string { return s.uplinkLn.Addr().String() }

// Step produces and transmits one broadcast cycle. It returns the
// number of subscribers that received it. In program mode the cycle
// goes out as the timeline's individual index and bucket frames; every
// occurrence of an object within the cycle carries the cycle-start
// control column, so validation is identical wherever a client tunes
// in.
func (s *Server) Step() (int, error) {
	if s.timeline != nil {
		return s.stepProgram()
	}
	cb := s.bsrv.StartCycle()
	if cb == nil {
		return 0, server.ErrClosed
	}
	var data []byte
	var err error
	var isDelta, isGrouped bool
	s.mu.Lock()
	prev := s.prev
	s.mu.Unlock()
	switch {
	case s.opts.SparseGrouped:
		// The epoch is stable between StartCycle calls, so reading it
		// after StartCycle pairs it with cb's partition.
		epoch := s.bsrv.RegroupEpoch()
		withPart := !s.sentPart || epoch != s.groupedEpoch ||
			(s.opts.PartitionEvery > 0 && cb.Number%cmatrix.Cycle(s.opts.PartitionEvery) == 0)
		data, err = wire.EncodeGroupedCycle(cb, epoch, withPart)
		if err == nil {
			s.groupedEpoch, s.sentPart = epoch, true
		}
		isGrouped = true
	case s.opts.DeltaEvery > 0 && prev != nil && cb.Number%cmatrix.Cycle(s.opts.DeltaEvery) != 0:
		data, err = wire.EncodeCycleDelta(prev, cb)
		isDelta = true
	default:
		data, err = wire.EncodeCycle(cb)
	}
	if err != nil {
		return 0, err
	}
	switch {
	case isGrouped:
		s.cGroupedBytes.Add(int64(len(data)))
	case isDelta:
		s.cDeltaBytes.Add(int64(len(data)))
	default:
		s.cFullBytes.Add(int64(len(data)))
	}
	s.cFramesSent.Inc()
	if s.dsender != nil {
		// One datagram transmission reaches every tuned receiver; its
		// cost does not appear in the per-subscriber loop below.
		if err := s.dsender.SendCycle(int64(cb.Number), [][]byte{data}); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	s.prev = cb
	type target struct {
		conn   net.Conn
		subset []int
	}
	targets := make([]target, 0, len(s.subs))
	for c := range s.subs {
		targets = append(targets, target{conn: c, subset: s.subSets[c]})
	}
	s.mu.Unlock()
	// Partial replication: subset subscribers get a per-subset BCQ3
	// frame (the matching objects' values plus their full control
	// columns) instead of the full cycle. One encode serves every
	// subscriber sharing a filter.
	subsetFrames := map[string][]byte{}
	delivered := 0
	for _, tg := range targets {
		payload := data
		if tg.subset != nil && cb.Matrix != nil {
			key := fmt.Sprint(tg.subset)
			f, ok := subsetFrames[key]
			if !ok {
				if sc, err := wire.SubsetOf(cb, tg.subset); err == nil {
					f, _ = wire.EncodeSubsetCycle(sc)
				}
				subsetFrames[key] = f
				if f != nil {
					s.cSubsetBytes.Add(int64(len(f)))
					s.cFramesSent.Inc()
				}
			}
			if f != nil {
				payload = f
			}
		}
		// A slow or dead subscriber must not stall the broadcast: give
		// each write a short deadline and drop the connection on error.
		tg.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout(2 * time.Second)))
		if err := writeFrame(tg.conn, payload); err != nil {
			s.reapSub(tg.conn, cb.Number)
			continue
		}
		s.cTxBytes.Add(int64(len(payload)) + 4)
		delivered++
	}
	s.bsrv.Tracer().Emit(obs.EvCycleEnd, obs.ActorServer, int64(cb.Number), 1, int64(delivered))
	return delivered, nil
}

// writeTimeout resolves the per-write deadline for subscriber sockets.
func (s *Server) writeTimeout(def time.Duration) time.Duration {
	if s.opts.WriteTimeout > 0 {
		return s.opts.WriteTimeout
	}
	return def
}

// reapSub drops a subscriber whose send path overflowed — it could not
// drain a frame within the write deadline (or the connection died). The
// reap is observable: a dedicated counter and a trace event, because a
// silently vanishing subscriber looks identical to a doze window from
// the outside and the difference matters when debugging retune storms.
func (s *Server) reapSub(c net.Conn, cycle cmatrix.Cycle) {
	s.mu.Lock()
	reaped := false
	if s.subs[c] {
		delete(s.subs, c)
		delete(s.subSets, c)
		c.Close()
		reaped = true
		s.cSubsDropped.Inc()
		s.cReaps.Inc()
		s.gSubs.Set(int64(len(s.subs)))
	}
	left := len(s.subs)
	s.mu.Unlock()
	if reaped {
		s.bsrv.Tracer().Emit(obs.EvSubReap, obs.ActorServer, int64(cycle), 0, int64(left))
	}
}

// RunTicker calls Step every interval until stop is closed.
func (s *Server) RunTicker(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := s.Step(); errors.Is(err, server.ErrClosed) {
				return
			}
		}
	}
}

// Subscribers reports the current broadcast subscriber count.
// Obs returns the registry the server's transmission counters live in
// (Options.Obs, defaulting to the broadcast server's own registry).
func (s *Server) Obs() *obs.Registry { return s.reg }

func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Close stops listening and disconnects everything. The underlying
// broadcast server is left open (close it separately).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.broadcastLn.Close()
	s.uplinkLn.Close()
	s.mu.Lock()
	for c := range s.subs {
		c.Close()
		delete(s.subs, c)
		delete(s.subSets, c)
		s.cSubsDropped.Inc()
	}
	s.gSubs.Set(0)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptBroadcast() {
	defer s.wg.Done()
	for {
		conn, err := s.broadcastLn.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.subs[conn] = true
		s.cSubsAdded.Inc()
		s.gSubs.Set(int64(len(s.subs)))
		s.mu.Unlock()
		// Per-connection reader: the broadcast stream is one-way for
		// plain tuners (they never write, so this read blocks until the
		// connection dies), but subset subscribers announce their object
		// filter with a BCQ2 frame on the same socket.
		s.wg.Add(1)
		go s.readSubscriber(conn)
	}
}

// readSubscriber consumes the (normally empty) client-to-server side of
// a broadcast connection, accepting BCQ2 subset-subscribe frames. A
// malformed frame, an out-of-range filter, or a subset request against
// a layout that cannot serve one (anything but classic matrix mode)
// drops the connection — the broadcast socket has no reply channel, so
// disconnection is the refusal.
func (s *Server) readSubscriber(conn net.Conn) {
	defer s.wg.Done()
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		if !wire.IsSubsetSubscribeFrame(frame) {
			s.reapSub(conn, 0)
			return
		}
		objs, err := wire.DecodeSubsetSubscribe(frame)
		if err != nil || len(objs) == 0 {
			s.reapSub(conn, 0)
			return
		}
		if s.timeline != nil || s.bsrv.Layout().Control != bcast.ControlMatrix {
			s.reapSub(conn, 0)
			return
		}
		if objs[len(objs)-1] >= s.bsrv.Layout().Objects {
			s.reapSub(conn, 0)
			return
		}
		s.mu.Lock()
		if s.subs[conn] {
			s.subSets[conn] = objs
		}
		s.mu.Unlock()
		s.cSubsetSubs.Inc()
	}
}

func (s *Server) acceptUplink() {
	defer s.wg.Done()
	for {
		conn, err := s.uplinkLn.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			for {
				frame, err := readFrame(conn)
				if err != nil {
					return
				}
				start := time.Now()
				verdict := s.dispatchUplink(frame)
				s.hUplinkNs.Observe(time.Since(start).Nanoseconds())
				if err := writeFrame(conn, wire.EncodeUpdateReply(verdict)); err != nil {
					return
				}
			}
		}()
	}
}

// dispatchUplink decodes and executes one uplink frame, multiplexing
// the three uplink frame kinds by magic: ordinary BCU1 submissions plus
// the BCP1/BCD1 shots of the cross-shard two-shot commit, so a shard
// coordinator drives a remote shard over the same scarce uplink
// connection clients use.
func (s *Server) dispatchUplink(frame []byte) error {
	if len(frame) >= 4 {
		switch [4]byte(frame[0:4]) {
		case wire.PrepareMagic:
			token, req, remote, err := wire.DecodePrepare(frame)
			if err != nil {
				return err
			}
			return s.bsrv.PrepareUpdate(token, req, remote)
		case wire.DecisionMagic:
			token, commit, err := wire.DecodeDecision(frame)
			if err != nil {
				return err
			}
			return s.bsrv.DecideUpdate(token, commit)
		}
	}
	req, err := wire.DecodeUpdateRequest(frame)
	if err != nil {
		return err
	}
	return s.bsrv.SubmitUpdate(req)
}

// Tuner is a client's receiver: it decodes the broadcast stream into a
// local medium that internal/client consumes unchanged.
type Tuner struct {
	conn   net.Conn
	medium *bcast.Medium
	done   chan struct{}
	err    error
	dec    *FrameDecoder
}

// Tune connects to a broadcast address and starts receiving cycles.
func Tune(addr string) (*Tuner, error) {
	return tune(addr, nil)
}

// TuneSubset connects as a partial replica: it announces the object
// filter with a BCQ2 frame, and the server thereafter ships only the
// matching objects' values (with their full control columns) as BCQ3
// frames. The decoded cycles are full-width views whose unsubscribed
// columns are poisoned conservatively, so validation involving an
// unsubscribed object fails rather than lies. Requires a classic
// matrix-layout server; others drop the connection.
func TuneSubset(addr string, objs []int) (*Tuner, error) {
	objs = wire.NormalizeSubset(objs)
	if len(objs) == 0 {
		return nil, errors.New("netcast: empty subset")
	}
	return tune(addr, objs)
}

func tune(addr string, subset []int) (*Tuner, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if subset != nil {
		if err := writeFrame(conn, wire.EncodeSubsetSubscribe(subset)); err != nil {
			conn.Close()
			return nil, err
		}
	}
	t := &Tuner{conn: conn, medium: bcast.NewMedium(), done: make(chan struct{}), dec: NewFrameDecoder()}
	go t.loop()
	return t, nil
}

func (t *Tuner) loop() {
	defer close(t.done)
	defer t.medium.Close()
	for {
		frame, err := readFrame(t.conn)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				t.err = err
			}
			return
		}
		cb, err := t.dec.Decode(frame)
		if err != nil {
			t.err = err
			return
		}
		if cb != nil {
			t.medium.Publish(cb)
		}
	}
}

// Subscribe returns a subscription delivering decoded cycles.
func (t *Tuner) Subscribe(buffer int) *bcast.Subscription {
	return t.medium.Subscribe(buffer)
}

// Close tears the tuner down and waits for its receive loop.
func (t *Tuner) Close() error {
	t.conn.Close()
	<-t.done
	return t.err
}

// Uplink is a TCP implementation of protocol.Uplink. It is safe for
// concurrent use; requests are serialized over one connection, which is
// the realistic model of a scarce uplink.
type Uplink struct {
	mu   sync.Mutex
	conn net.Conn
}

// DialUplink connects to a server's uplink address.
func DialUplink(addr string) (*Uplink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Uplink{conn: conn}, nil
}

// roundTrip sends one uplink frame and decodes the status reply.
func (u *Uplink) roundTrip(frame []byte) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if err := writeFrame(u.conn, frame); err != nil {
		return err
	}
	reply, err := readFrame(u.conn)
	if err != nil {
		return err
	}
	verdict, wireErr := wire.DecodeUpdateReply(reply)
	if wireErr != nil {
		return wireErr
	}
	return verdict
}

// SubmitUpdate implements protocol.Uplink over the wire.
func (u *Uplink) SubmitUpdate(req protocol.UpdateRequest) error {
	return u.roundTrip(wire.EncodeUpdateRequest(req))
}

// PrepareUpdate sends shot one of the cross-shard commit, making
// *Uplink a shard coordinator participant over TCP.
func (u *Uplink) PrepareUpdate(token uint64, req protocol.UpdateRequest, remote bool) error {
	return u.roundTrip(wire.EncodePrepare(token, req, remote))
}

// DecideUpdate sends shot two.
func (u *Uplink) DecideUpdate(token uint64, commit bool) error {
	return u.roundTrip(wire.EncodeDecision(token, commit))
}

// Close closes the uplink connection.
func (u *Uplink) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.conn.Close()
}
