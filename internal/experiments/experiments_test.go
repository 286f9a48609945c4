package experiments

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
)

// The experiment suite doubles as a system-level test: every experiment must
// run to completion in quick mode and produce a well-formed table with the
// expected qualitative shape.

func quick() Config { return Config{Quick: true} }

func checkShape(t *testing.T, r Result, wantRows int) {
	t.Helper()
	if r.ID == "" || r.Title == "" || len(r.Header) == 0 {
		t.Fatalf("malformed result: %+v", r)
	}
	if len(r.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d: %v", r.ID, len(r.Rows), wantRows, r.Rows)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("%s: row width %d != header width %d", r.ID, len(row), len(r.Header))
		}
	}
	if !strings.Contains(r.String(), r.ID) {
		t.Errorf("%s: String() missing the experiment id", r.ID)
	}
}

func TestE1QualitativeShape(t *testing.T) {
	r, err := E1ExternalInconsistency(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
	// Row 0 is fixedseq, row 1 is oar.
	if r.Rows[0][2] == "0" {
		t.Errorf("fixedseq produced no external inconsistency under the Figure 1(b) fault: %v", r.Rows[0])
	}
	if r.Rows[1][2] != "0" {
		t.Errorf("OAR produced external inconsistencies: %v", r.Rows[1])
	}
}

func TestE2Shape(t *testing.T) {
	r, err := E2FailureFreeLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2*3) // 2 sizes x 3 protocols
}

func TestE3Shape(t *testing.T) {
	r, err := E3Failover(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
}

func TestE4QualitativeShape(t *testing.T) {
	r, err := E4OptUndeliver(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
	// Row 0 is oar: exactly 4 undeliveries of epoch 0 per run, zero inconsistency.
	if r.Rows[0][2] != "4" {
		t.Errorf("OAR undeliveries = %s, want 4", r.Rows[0][2])
	}
	if r.Rows[0][3] != "0" || r.Rows[0][4] != "0" {
		t.Errorf("OAR run was inconsistent: %v", r.Rows[0])
	}
	// Row 1 is fixedseq: it must diverge under the same fault.
	if r.Rows[1][3] == "0" && r.Rows[1][4] == "0" {
		t.Errorf("fixedseq survived the Figure 4 fault unscathed: %v", r.Rows[1])
	}
}

func TestE5Shape(t *testing.T) {
	r, err := E5Throughput(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2*3)
}

func TestE6Shape(t *testing.T) {
	r, err := E6EpochGC(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
	// GC off closes no epochs; GC on closes at least one.
	if r.Rows[0][1] != "0" {
		t.Errorf("limit=0 closed %s epochs, want 0", r.Rows[0][1])
	}
	if r.Rows[1][1] == "0" {
		t.Errorf("limit=32 closed no epochs")
	}
}

func TestE7Shape(t *testing.T) {
	r, err := E7QuorumRule(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
}

func TestA2QualitativeShape(t *testing.T) {
	r, err := A2UndoThriftiness(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2)
	if r.Rows[0][3] == "0" {
		t.Log("thriftiness avoided no undos in this sample (possible but unusual)")
	}
}

func TestProtocolsEnumerated(t *testing.T) {
	if len(protocols) != 3 {
		t.Fatal("expected 3 protocols under comparison")
	}
	seen := map[string]bool{}
	for _, p := range protocols {
		seen[p.String()] = true
	}
	if !seen["oar"] || !seen["fixedseq"] || !seen["ctab"] {
		t.Errorf("protocols = %v", seen)
	}
	for _, p := range protocols {
		if _, err := backend.Lookup(p.String()); err != nil {
			t.Errorf("protocol %v has no registered backend: %v", p, err)
		}
	}
}

func TestE8QualitativeShape(t *testing.T) {
	r, err := E8Batching(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 3)
	// Row 0 is unbatched OAR, row 1 batched OAR: both must hold Propositions
	// 1-7 under the checker (violations column is last).
	for _, row := range r.Rows[:2] {
		if row[len(row)-1] != "0" {
			t.Errorf("%s: trace checker saw violations: %v", row[0], row)
		}
	}
}

func TestE10QualitativeShape(t *testing.T) {
	r, err := E10BackendMatrix(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 3*2*2) // 3 backends x shards {1,2} x fault {none,crash}
	for _, row := range r.Rows {
		// Every OAR cell — sharded, faulted, or both — must be checker-clean;
		// the unchecked baseline cells report "-".
		if viol := row[len(row)-1]; row[0] == "oar" && viol != "0" {
			t.Errorf("oar cell saw checker violations: %v", row)
		} else if row[0] != "oar" && viol != "-" {
			t.Errorf("baseline cell claims a checker verdict: %v", row)
		}
	}
}

func TestE10ProtocolSelection(t *testing.T) {
	cfg := quick()
	cfg.Protocols = []cluster.Protocol{cluster.CTab}
	r, err := E10BackendMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2*2) // one backend x shards {1,2} x fault {none,crash}
	for _, row := range r.Rows {
		if row[0] != "ctab" {
			t.Errorf("unexpected backend in restricted sweep: %v", row)
		}
	}
}

// TestE13QualitativeShape: the read-fast-path matrix must produce its full
// grid with the per-cell invariants holding (the cells self-assert: zero
// ordered reads, zero fallbacks, read p50 bounded by write p50, checkers
// clean — any breach is an error, so reaching the shape check means the
// fast path actually worked in every cell).
func TestE13QualitativeShape(t *testing.T) {
	r, err := E13ReadFastPath(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 3*2*1*2) // 3 backends x dists {uniform,zipfian} x ratios {0.9} x shards {1,2}
	if len(r.Latency) != 2*len(r.Rows) {
		t.Fatalf("%d latency samples for %d rows (want a read and a write sample per cell)", len(r.Latency), len(r.Rows))
	}
	for i, row := range r.Rows {
		if viol := row[len(row)-1]; row[0] == "oar" && viol != "0" {
			t.Errorf("oar cell saw checker violations: %v", row)
		} else if row[0] != "oar" && viol != "-" {
			t.Errorf("baseline cell claims a checker verdict: %v", row)
		}
		for _, s := range r.Latency[2*i : 2*i+2] {
			if s.Count == 0 || s.P50NS <= 0 || s.MaxNS < s.P50NS {
				t.Errorf("malformed latency sample for row %v: %+v", row, s)
			}
			if s.Labels["backend"] == "" || s.Labels["path"] == "" || s.Labels["rw"] == "" {
				t.Errorf("latency sample missing labels: %+v", s)
			}
		}
	}
}

// TestE13Selection: the -protocol/-dist/-rw knobs shape the grid, and an
// unknown distribution is rejected.
func TestE13Selection(t *testing.T) {
	cfg := quick()
	cfg.Protocols = []cluster.Protocol{cluster.OAR}
	cfg.Dist = "uniform"
	cfg.ReadRatio = 0.99
	r, err := E13ReadFastPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 2) // one backend x one dist x one ratio x shards {1,2}
	for _, row := range r.Rows {
		if row[0] != "oar" || row[1] != "uniform" || row[2] != "0.99" {
			t.Errorf("selection ignored: %v", row)
		}
	}
	if _, err := E13ReadFastPath(Config{Quick: true, Dist: "pareto"}); err == nil {
		t.Error("unknown key distribution accepted")
	}
}

// TestE14QualitativeShape: the nemesis search experiment is self-asserting
// (any checker violation in a positive row is an error, and the control row
// errors unless the injected bug is found and shrunk), so a returned Result
// already proves the interesting properties; the shape test pins the table
// and sample schema.
func TestE14QualitativeShape(t *testing.T) {
	r, err := E14Nemesis(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 3+1) // three clean shapes + the injected-bug control
	if len(r.Latency) != len(r.Rows) {
		t.Fatalf("%d latency samples for %d rows", len(r.Latency), len(r.Rows))
	}
	for i, row := range r.Rows {
		if s := r.Latency[i]; s.Count == 0 || s.P50NS <= 0 || s.P99NS <= 0 {
			t.Errorf("malformed latency sample for row %v: %+v", row, s)
		}
	}
	control := r.Rows[len(r.Rows)-1]
	if !strings.HasPrefix(control[6], "seed ") {
		t.Errorf("control row did not report a found seed: %v", control)
	}
}

// TestE15QualitativeShape: the recovery experiment is self-asserting (any
// checker violation, missing recovery, or fingerprint divergence is an error,
// not a table cell), so a returned Result already proves crash-recovery held
// up; the shape test pins the table and sample schema.
func TestE15QualitativeShape(t *testing.T) {
	r, err := E15Recovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, r, 3*2+1) // 3 backends x shards {1,2} + the durability row
	if len(r.Latency) != len(r.Rows) {
		t.Fatalf("%d latency samples for %d rows", len(r.Latency), len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[6] != "0" {
			t.Errorf("row reports violations: %v", row)
		}
		if s := r.Latency[i]; s.Count == 0 || s.P50NS <= 0 || s.P99NS <= 0 {
			t.Errorf("malformed latency sample for row %v: %+v", row, s)
		}
	}
	durability := r.Rows[len(r.Rows)-1]
	if durability[5] != "3" {
		t.Errorf("durability row saw %s recoveries, want 3: %v", durability[5], durability)
	}
}
