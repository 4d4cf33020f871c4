package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// perLayer are the metrics a traced run reports, in BENCHMARK.json
// order. A metric of a layer the workload does not use (the uplink and
// update codec off the uplink workload; dgram and qcache off the
// datagram workload) reads 0.
var perLayer = []string{
	"netcast.step_p50_ms", "netcast.step_p95_ms", "netcast.deliver_p50_ms",
	"netcast.uplink_rtt_p50_us", "netcast.server_uplink_mean_us", "netcast.tx_bytes_per_cycle",
	"server.start_cycle_p50_ms", "server.start_cycle_alloc_kb", "server.commit_p50_us",
	"server.submit_p50_us", "server.conflict_aborts",
	"cmatrix.apply_p50_us", "cmatrix.snapshot_p50_us", "cmatrix.apply_share",
	"wire.encode_p50_ms", "wire.decode_p50_ms", "wire.encode_mb_s", "wire.decode_mb_s",
	"wire.alloc_kb_per_cycle", "wire.update_codec_p50_us",
	"dgram.packets_per_cycle", "dgram.repair_packets_per_cycle", "dgram.frames_repaired",
	"dgram.frames_lost", "dgram.send_p50_ms", "dgram.reassemble_p50_ms",
	"client.await_p50_ms", "client.read_p50_us", "client.cache_hit_ratio", "client.read_aborts",
	"client.restart_ratio",
	"protocol.validate_p50_ns",
	"qcache.put_p50_us", "qcache.bytes_per_cycle", "qcache.bytes_per_user_byte", "qcache.segments",
	"alloc_mb_per_cycle", "cpu_ms_per_cycle", "gc_cpu_fraction", "trace_overhead",
}

// traced is the per-layer run. Every repetition uses input seed 0 of
// the run's seed, so all of them do identical work: first untraced
// repetitions for half the budget, then traced ones for the other
// half, then a replay of the first traced repetition's inputs.
func traced(w *workload, seed uint64, budget time.Duration, dir, out string) *bench {
	b := newBench()
	warm := runRep(w, seed, 0, dir, nil, nil)
	b.add(warm)
	reps := func(tr *tracer, rec *record) []repResult {
		var rs []repResult
		for start := time.Now(); len(b.fails) == 0 && (len(rs) == 0 || time.Since(start) < budget/2); {
			var rr *record
			if len(rs) == 0 {
				rr = rec
			}
			r := runRep(w, seed, 0, dir, tr, rr)
			b.add(r)
			b.same(warm, r, "warm-up vs a later repetition")
			rs = append(rs, r)
		}
		return rs
	}
	a0, gc0, cpu0 := runtimeCounters()
	plain := reps(nil, nil)
	a1, gc1, cpu1 := runtimeCounters()
	tr, rec := newTracer(), &record{}
	live := reps(tr, rec)
	if len(b.fails) > 0 {
		return b
	}
	st, err := replay(w, rec, dir, tr)
	if err != nil {
		b.fails = append(b.fails, "replay: "+err.Error())
		b.failed++
		return b
	}
	b.ops += int64(st.cycles)

	plainCycleNs := meanCycleNs(plain)
	c, cyc := live[0].counts, float64(live[0].cycles)
	us, ms, ns := time.Microsecond, time.Millisecond, time.Nanosecond
	p50 := func(name string, unit time.Duration) float64 { return median(tr.durations(name, unit)) }

	b.set("netcast.step_p50_ms", p50("netcast.step", ms), "ms")
	b.set("netcast.step_p95_ms", quantile(tr.durations("netcast.step", ms), 0.95), "ms")
	b.set("netcast.deliver_p50_ms", p50("netcast.deliver", ms), "ms")
	b.set("netcast.uplink_rtt_p50_us", p50("netcast.uplink", us), "us")
	b.set("netcast.server_uplink_mean_us", live[0].serverUplinkUs, "us")
	b.set("netcast.tx_bytes_per_cycle", float64(c.AirBytes)/cyc, "bytes")

	b.set("server.start_cycle_p50_ms", p50("server.start_cycle", ms), "ms")
	b.set("server.start_cycle_alloc_kb", float64(st.startAlloc)/1024/float64(st.cycles), "kB")
	b.set("server.commit_p50_us", p50("server.commit", us), "us")
	b.set("server.submit_p50_us", p50("server.submit", us), "us")
	b.set("server.conflict_aborts", float64(c.Conflicts), "count")

	applyNs := float64(tr.total("cmatrix.apply").Nanoseconds()) / float64(st.cycles)
	b.set("cmatrix.apply_p50_us", p50("cmatrix.apply", us), "us")
	b.set("cmatrix.snapshot_p50_us", p50("cmatrix.snapshot", us), "us")
	b.set("cmatrix.apply_share", applyNs/plainCycleNs, "ratio")

	mbs := func(name string) float64 {
		return float64(st.frameBytes) / (1 << 20) / tr.total(name).Seconds()
	}
	b.set("wire.encode_p50_ms", p50("wire.encode", ms), "ms")
	b.set("wire.decode_p50_ms", p50("wire.decode", ms), "ms")
	b.set("wire.encode_mb_s", mbs("wire.encode"), "MB/s")
	b.set("wire.decode_mb_s", mbs("wire.decode"), "MB/s")
	b.set("wire.alloc_kb_per_cycle", float64(st.wireAlloc)/1024/float64(st.cycles), "kB")
	b.set("wire.update_codec_p50_us", p50("wire.update_codec", us), "us")

	b.set("dgram.packets_per_cycle", float64(c.Packets)/cyc, "packets")
	b.set("dgram.repair_packets_per_cycle", float64(c.RepairPackets)/cyc, "packets")
	b.set("dgram.frames_repaired", float64(c.FramesRepaired), "count")
	b.set("dgram.frames_lost", float64(c.FramesLost), "count")
	b.set("dgram.send_p50_ms", p50("dgram.send", ms), "ms")
	b.set("dgram.reassemble_p50_ms", p50("dgram.reassemble", ms), "ms")

	b.set("client.await_p50_ms", p50("client.await", ms), "ms")
	b.set("client.read_p50_us", p50("client.read", us), "us")
	b.set("client.cache_hit_ratio", ratio(c.CacheHits, c.Reads), "ratio")
	b.set("client.read_aborts", float64(c.ReadAborts), "count")
	b.set("client.restart_ratio", ratio(c.Aborts, c.Attempts), "ratio")

	b.set("protocol.validate_p50_ns", p50("protocol.validate", ns), "ns")

	b.set("qcache.put_p50_us", p50("qcache.put", us), "us")
	b.set("qcache.bytes_per_cycle", float64(c.QcacheBytes)/cyc, "bytes")
	b.set("qcache.bytes_per_user_byte", ratio(st.putFileBytes, st.putUserBytes), "ratio")
	b.set("qcache.segments", float64(c.QcacheSegments), "count")

	var plainCycles int
	var plainCPU time.Duration
	for _, r := range plain {
		plainCycles += r.cycles
		plainCPU += r.cpu
	}
	b.set("alloc_mb_per_cycle", float64(a1-a0)/(1<<20)/float64(plainCycles), "MB")
	b.set("cpu_ms_per_cycle", float64(plainCPU.Nanoseconds())/1e6/float64(plainCycles), "ms")
	b.set("gc_cpu_fraction", (gc1-gc0)/(cpu1-cpu0), "ratio")
	b.set("trace_overhead", median(cycleRates(live))/median(cycleRates(plain)), "ratio")

	self := tr.selfTimes()
	b.note("%d untraced and %d traced repetitions of %d cycles; replayed %d cycles, %d validations",
		len(plain), len(live), w.cycles, st.cycles, st.validates)
	b.note("self time per layer (span minus covered children, traced + replay):")
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		b.note("  %-10s %12.3f ms", l, float64(self[l].Nanoseconds())/1e6)
	}
	step, sc, enc, send := p50("netcast.step", ms), p50("server.start_cycle", ms), p50("wire.encode", ms), p50("dgram.send", ms)
	b.note("netcast.step p50 %.3f ms = server.start_cycle %.3f + wire.encode %.3f + dgram.send %.3f + socket write and rest %.3f",
		step, sc, enc, send, step-sc-enc-send)
	dl, dec, reasm := p50("netcast.deliver", ms), p50("wire.decode", ms), p50("dgram.reassemble", ms)
	b.note("netcast.deliver p50 %.3f ms = wire.decode %.3f + dgram.reassemble %.3f + transit and hand-off %.3f",
		dl, dec, reasm, dl-dec-reasm)

	selfMs := map[string]float64{}
	for l, d := range self {
		selfMs[l] = float64(d.Nanoseconds()) / 1e6
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	report := map[string]any{"workload": w.name, "seed": seed, "self_ms": selfMs, "notes": b.notes}
	if err := tr.write(path, report); err != nil {
		b.fails = append(b.fails, "writing spans: "+err.Error())
	} else {
		b.note("spans: %s (%d spans)", path, len(tr.spans))
	}
	return b
}

// meanCycleNs is the repetitions' mean wall time per cycle.
func meanCycleNs(rs []repResult) float64 {
	var cycles int
	var loop time.Duration
	for _, r := range rs {
		cycles += r.cycles
		loop += r.loop
	}
	return float64(loop.Nanoseconds()) / float64(cycles)
}

// cycleRates returns each repetition's cycles per second.
func cycleRates(rs []repResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.cycles) / r.loop.Seconds()
	}
	return out
}
