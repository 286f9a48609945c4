package nemesis

import (
	"strings"
	"testing"

	"repro/internal/backend"
)

// TestSearchFindsInjectedReadFloorBug is the end-to-end acceptance test for
// the whole nemesis loop: re-introduce the stale-read-floor bug behind its
// test hook (a client that freezes a read's discard floor at issue time
// instead of re-taking the live high-water per reply), let the randomized
// search find it, shrink the failing schedule to a locally-minimal artifact
// of at most 5 steps, and replay the artifact through its text encoding.
//
// The search config deliberately sits in the bug's hard region: several
// workers interleaving writes and fast-path reads on ONE shared client, so
// a write adoption regularly lands between a read's issue and its adoption.
func TestSearchFindsInjectedReadFloorBug(t *testing.T) {
	if !backend.StaleReadFloorBug.CompareAndSwap(false, true) {
		t.Fatal("StaleReadFloorBug already enabled")
	}
	defer backend.StaleReadFloorBug.Store(false)

	cfg := Config{Requests: 96, Workers: 4, Clients: 1, ReadRatio: 0.65, Seed: 5}
	found, ran, err := Search(SearchConfig{Run: cfg, Gen: GenSpec{Motifs: 2}, Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if found == nil {
		t.Fatalf("search missed the injected bug over %d schedules", ran)
	}
	if !strings.Contains(violationProperties(found.Result), "read monotonicity") {
		t.Fatalf("wrong property fired: %v", found.Result.Violations)
	}

	oracle := FailOracle(cfg, 3)
	shrunk := Shrink(found.Schedule, oracle)
	if len(shrunk.Steps) > 5 {
		t.Fatalf("shrunk schedule still has %d steps (want <= 5):\n%s",
			len(shrunk.Steps), shrunk.Encode())
	}

	// The artifact must replay through its committable text form: encode,
	// re-parse, run — and reproduce the same violation.
	replayed, err := Parse(shrunk.Encode())
	if err != nil {
		t.Fatalf("shrunk artifact does not re-parse: %v\n%s", err, shrunk.Encode())
	}
	reproduced := false
	for i := 0; i < 5 && !reproduced; i++ {
		res, err := Run(cfg, replayed)
		if err != nil {
			t.Fatal(err)
		}
		reproduced = strings.Contains(violationProperties(res), "read monotonicity")
	}
	if !reproduced {
		t.Fatalf("shrunk artifact did not replay the violation:\n%s", shrunk.Encode())
	}

	// Sanity: with the hook off the very same schedule is clean — the finding
	// is the injected bug, not harness noise.
	backend.StaleReadFloorBug.Store(false)
	for i := 0; i < 3; i++ {
		res, err := Run(cfg, replayed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("schedule fails with the hook off: %v", res.Violations)
		}
	}
}
