package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"broadcastcc/internal/protocol"
)

// The multi-client engine is pinned by committed goldens: one entry per
// configuration in goldenConfigs, written by the original heap-based
// engine the event wheel was built to mirror. Each entry holds a digest
// of the whole Result (samples, per-client stats, obs snapshot, trace,
// audit log) and a readable summary. A mismatch prints both summaries:
// moved headline numbers mean a model change; a new digest under equal
// summaries means toolchain float drift or a change that only reorders
// events (an inverted seq tie-break looks like that).

const engineGoldenPath = "testdata/engine_golden.json"

// goldenSummary is the readable part of a golden entry.
type goldenSummary struct {
	Measured       int     `json:"measured"`
	RestartRatio   float64 `json:"restart_ratio"`
	SimulatedTime  float64 `json:"simulated_time"`
	TraceLen       int     `json:"trace_len"`
	ClientRestarts int64   `json:"client_restarts"`
}

type goldenEntry struct {
	SHA256  string        `json:"sha256"`
	Summary goldenSummary `json:"summary"`
}

// goldenConfigs is every multi-client shape the golden file pins: the
// figure and fault corners of wheelDiffConfigs plus three stress shapes
// (a thousand clients, heavy doze-wake, a mass retune into one slot).
func goldenConfigs() map[string]Config {
	cfgs := wheelDiffConfigs()

	thousand := smallConfig(protocol.FMatrix)
	thousand.Clients = 1000
	thousand.ClientTxns = 6
	thousand.MeasureFrom = 2
	thousand.ClientUpdateProb = 0.1
	thousand.UplinkLatency = 4096
	thousand.FaultLoss = 0.1
	thousand.FaultDoze = 0.05
	thousand.FaultDozeLen = 2
	thousand.FaultSeed = 23
	cfgs["clients=1000"] = thousand

	// Reads repeatedly skip cycles, so doze-wake lands events several
	// wheel slots ahead.
	doze := smallConfig(protocol.FMatrix)
	doze.Clients = 64
	doze.ClientTxns = 12
	doze.MeasureFrom = 2
	doze.FaultLoss = 0.3
	doze.FaultDoze = 0.2
	doze.FaultDozeLen = 3
	doze.FaultSeed = 41
	cfgs["doze-wake"] = doze

	// Nearly every client misses cycles at once, so after a dropped
	// cycle a wave of clients retunes into the same later slot and pop
	// order within it must still be the global (time, seq) order.
	retune := smallConfig(protocol.FMatrix)
	retune.Clients = 128
	retune.ClientTxns = 8
	retune.MeasureFrom = 2
	retune.FaultDoze = 0.6
	retune.FaultDozeLen = 4
	retune.FaultSeed = 3
	retune.MaxTime = 5e11
	cfgs["mass-retune"] = retune

	return cfgs
}

// goldenEntryOf digests every field of r but Config, so adding or
// removing a Config field does not churn the file. %#v prints each
// field in full, unexported sample moments included, with map keys
// sorted.
func goldenEntryOf(r *Result) goldenEntry {
	h := sha256.New()
	v := reflect.ValueOf(*r)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Config" {
			fmt.Fprintf(h, "%s:%#v\n", name, v.Field(i).Interface())
		}
	}
	return goldenEntry{
		SHA256: hex.EncodeToString(h.Sum(nil)),
		Summary: goldenSummary{
			Measured:       r.ResponseTime.N(),
			RestartRatio:   r.RestartRatio,
			SimulatedTime:  r.SimulatedTime,
			TraceLen:       len(r.Trace),
			ClientRestarts: r.Obs.Counters["client_restarts"],
		},
	}
}

// checkGolden reports how r departs from the stored entry for name.
func checkGolden(name string, want goldenEntry, r *Result) error {
	got := goldenEntryOf(r)
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: result digest %s, golden %s\n  golden summary: %+v\n  new summary:    %+v",
		name, got.SHA256, want.SHA256, want.Summary, got.Summary)
}

func loadEngineGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	b, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatalf("%s: %v", engineGoldenPath, err)
	}
	return golden
}

// mustMatchGolden runs cfg and fails t unless the Result matches the
// golden entry for name.
func mustMatchGolden(t *testing.T, golden map[string]goldenEntry, name string, cfg Config) *Result {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s has no entry for %q", engineGoldenPath, name)
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := checkGolden(name, want, r); err != nil {
		t.Error(err)
	}
	return r
}

// TestEngineGoldenCoversConfigs pins that the golden file and
// goldenConfigs name the same set of configurations.
func TestEngineGoldenCoversConfigs(t *testing.T) {
	golden := loadEngineGolden(t)
	cfgs := goldenConfigs()
	for name := range cfgs {
		if _, ok := golden[name]; !ok {
			t.Errorf("%s has no entry for %q", engineGoldenPath, name)
		}
	}
	for name := range golden {
		if _, ok := cfgs[name]; !ok {
			t.Errorf("%s entry %q matches no config", engineGoldenPath, name)
		}
	}
}

// TestEngineGoldenMismatchReport pins the failure message: it names the
// config and prints both summaries.
func TestEngineGoldenMismatchReport(t *testing.T) {
	cfg := goldenConfigs()["zipf"]
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEntryOf(r)
	if err := checkGolden("zipf", want, r); err != nil {
		t.Fatalf("identical run reported a mismatch: %v", err)
	}
	stale := want
	stale.Summary.SimulatedTime++
	stale.SHA256 = strings.Repeat("0", 64)
	err = checkGolden("zipf", stale, r)
	if err == nil {
		t.Fatal("tampered golden entry passed")
	}
	for _, s := range []string{"zipf", fmt.Sprintf("%+v", stale.Summary), fmt.Sprintf("%+v", want.Summary)} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("mismatch report %q does not contain %q", err, s)
		}
	}
}
