package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sort"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// workload is one input mix of the closed loop. Every count it
// produces is a pure function of (workload, seed): the loop is one
// goroutine and waits for each cycle before issuing the next step.
type workload struct {
	name  string
	alg   protocol.Algorithm
	n     int // database size
	obj   int // object size in bytes
	ts    int // timestamp width TS in bits
	udp   bool
	cache cmatrix.Cycle // weak-currency bound T (0 = no cache)

	serverTxns int     // server-local update transactions per cycle
	serverOps  int     // operations per server transaction
	readProb   float64 // probability an update operation is a read

	uplinkTxns int // client update transactions per cycle over the uplink
	uplinkOps  int // operations per client update transaction

	readTxns int // read-only transactions in flight, one read per cycle each
	readLen  int // reads per read-only transaction

	cycles    int // cycles per repetition (after the tune-in cycle)
	countReps int // measured repetitions the count metrics cover
	replay    int // cycles of one traced repetition replayed per layer
}

var workloads = []*workload{
	{
		// The paper's Table 1 settings: object values dominate the cycle.
		name: "paper-fmatrix", alg: protocol.FMatrix, n: 300, obj: 1024, ts: 8,
		serverTxns: 13, serverOps: 8, readProb: 0.5,
		readTxns: 128, readLen: 4,
		cycles: 300, countReps: 6, replay: 32,
	},
	{
		// The n² control matrix dominates the cycle; values are tiny.
		// The update rate makes read-only restarts count in the
		// hundreds. Not declared in BENCHMARK.json: the host's load
		// moves its rates by more than any bound (see README.md).
		name: "wide-fmatrix", alg: protocol.FMatrix, n: 600, obj: 16, ts: 8,
		serverTxns: 48, serverOps: 8, readProb: 0.5,
		readTxns: 256, readLen: 4,
		cycles: 40, countReps: 12, replay: 16,
	},
	{
		// A small cycle on the datagram leg; the uplink, server commit
		// path, client cache and disk store carry the work.
		name: "uplink-quasi-udp", alg: protocol.RMatrix, n: 2000, obj: 8, ts: 8,
		udp: true, cache: 4,
		serverTxns: 2, serverOps: 8, readProb: 0.5,
		uplinkTxns: 40, uplinkOps: 4,
		readTxns: 64, readLen: 4,
		cycles: 300, countReps: 3, replay: 48,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// gen draws one repetition's inputs. Values are derived from a token so
// the correctness check can regenerate the bytes any read must return.
type gen struct {
	w    *workload
	rng  *rand.Rand
	next uint64
}

func newGen(w *workload, seed uint64, rep int) *gen {
	return &gen{
		w:    w,
		rng:  rand.New(rand.NewPCG(seed, uint64(rep)*0x9e3779b97f4a7c15+1)),
		next: seed<<20 ^ uint64(rep)<<48 | 1,
	}
}

// newToken returns a fresh value identity.
func (g *gen) newToken() uint64 {
	g.next++
	return g.next
}

// objects draws k distinct object ids.
func (g *gen) objects(k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		if o := g.rng.IntN(g.w.n); !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return out
}

// op is one operation of an update transaction.
type op struct {
	obj   int
	read  bool
	token uint64 // value identity of a write
}

// updateOps draws one update transaction of k operations over distinct
// objects, each a read with probability readProb; at least one writes.
func (g *gen) updateOps(k int) []op {
	objs := g.objects(k)
	ops := make([]op, k)
	wrote := false
	for i, o := range objs {
		ops[i] = op{obj: o, read: g.rng.Float64() < g.w.readProb}
		if !ops[i].read {
			wrote = true
		}
	}
	if !wrote {
		ops[k-1].read = false
	}
	for i := range ops {
		if !ops[i].read {
			ops[i].token = g.newToken()
		}
	}
	return ops
}

// value renders the bytes of a value identity: the token, then filler
// that depends on it, to the workload's object size.
func value(token uint64, size int) []byte {
	b := make([]byte, size)
	fillValue(b, token)
	return b
}

func fillValue(b []byte, token uint64) {
	x := token
	for i := 0; i < len(b); i += 8 {
		var w [8]byte
		if i == 0 {
			binary.LittleEndian.PutUint64(w[:], token)
		} else {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			binary.LittleEndian.PutUint64(w[:], x*0x2545F4914F6CDD1D)
		}
		copy(b[i:], w[:])
	}
}

// shadow is the benchmark's own copy of the committed database: for every
// object, the value identity in force from each cycle on. It answers
// "what must a read of obj in cycle c return" for the correctness check.
type shadow struct {
	hist [][]version
	size int
	buf  []byte
}

type version struct {
	from  cmatrix.Cycle // first cycle whose broadcast carries this value
	token uint64
}

func newShadow(n, size int, initial []uint64) *shadow {
	s := &shadow{hist: make([][]version, n), size: size, buf: make([]byte, size)}
	for i, t := range initial {
		s.hist[i] = []version{{from: 0, token: t}}
	}
	return s
}

// commit records a write acknowledged before the broadcast of cycle
// from started.
func (s *shadow) commit(obj int, from cmatrix.Cycle, token uint64) {
	h := s.hist[obj]
	if last := &h[len(h)-1]; last.from == from {
		last.token = token
		return
	}
	s.hist[obj] = append(h, version{from: from, token: token})
}

// check reports whether val is the value of obj as of the start of
// cycle c.
func (s *shadow) check(obj int, c cmatrix.Cycle, val []byte) bool {
	h := s.hist[obj]
	i := sort.Search(len(h), func(i int) bool { return h[i].from > c }) - 1
	if i < 0 || len(val) != s.size {
		return false
	}
	fillValue(s.buf, h[i].token)
	return bytes.Equal(s.buf, val)
}
