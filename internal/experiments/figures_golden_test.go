package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// figuresGoldenPath pins every figure All(parallelQuick()) renders: the
// digests of both metric tables and of the BENCH JSON (obs snapshots
// included), as the original heap-based multi-client engine produced
// them.
const figuresGoldenPath = "testdata/figures_golden.json"

type figureDigest struct {
	ID           string `json:"id"`
	ResponseTime string `json:"response_time"`
	RestartRatio string `json:"restart_ratio"`
	Bench        string `json:"bench"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func figureDigests(t *testing.T, exps []*Experiment) []figureDigest {
	t.Helper()
	out := make([]figureDigest, len(exps))
	for i, e := range exps {
		b, err := json.Marshal(e.Bench())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = figureDigest{
			ID:           e.ID,
			ResponseTime: sha256Hex([]byte(e.Table(ResponseTime))),
			RestartRatio: sha256Hex([]byte(e.Table(RestartRatio))),
			Bench:        sha256Hex(b),
		}
	}
	return out
}

// checkFiguresGolden compares the digests of exps against the
// committed golden, naming each figure that moved.
func checkFiguresGolden(t *testing.T, exps []*Experiment) {
	t.Helper()
	b, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []figureDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", figuresGoldenPath, err)
	}
	got := figureDigests(t, exps)
	if len(got) != len(want) {
		t.Fatalf("All produced %d figures, %s pins %d", len(got), figuresGoldenPath, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("figure %s: digests %+v, golden %+v", got[i].ID, got[i], want[i])
		}
	}
}
