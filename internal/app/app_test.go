package app

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

func apply(t *testing.T, m Machine, cmd string) string {
	t.Helper()
	res, _ := m.Apply([]byte(cmd))
	return string(res)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil || m == nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestRecorderPositions(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 5; i++ {
		if got := apply(t, r, fmt.Sprintf("cmd%d", i)); got != strconv.Itoa(i) {
			t.Fatalf("position = %s, want %d", got, i)
		}
	}
	if lg := r.Log(); len(lg) != 5 || lg[0] != "cmd1" {
		t.Fatalf("log = %v", lg)
	}
}

func TestRecorderUndo(t *testing.T) {
	r := NewRecorder()
	r.Apply([]byte("a"))
	_, undo := r.Apply([]byte("b"))
	undo()
	if got := apply(t, r, "c"); got != "2" {
		t.Fatalf("after undo position = %s, want 2", got)
	}
	if r.Fingerprint() != "a|c" {
		t.Fatalf("fingerprint = %q", r.Fingerprint())
	}
}

func TestStackFigure1Scenario(t *testing.T) {
	// Figure 1(a): stack holds [y]; seq(pop; push x): pop -> y, push x -> ok.
	s := NewStack()
	apply(t, s, "push y")
	if got := apply(t, s, "pop"); got != "y" {
		t.Fatalf("pop = %q, want y", got)
	}
	if got := apply(t, s, "push x"); got != "ok" {
		t.Fatalf("push = %q", got)
	}
	if s.Fingerprint() != "x" {
		t.Fatalf("state = %q, want x", s.Fingerprint())
	}
	// The inconsistent order seq(push x; pop) yields pop -> x instead:
	s2 := NewStack()
	apply(t, s2, "push y")
	apply(t, s2, "push x")
	if got := apply(t, s2, "pop"); got != "x" {
		t.Fatalf("reordered pop = %q, want x", got)
	}
}

func TestStackPopEmpty(t *testing.T) {
	s := NewStack()
	if got := apply(t, s, "pop"); got != "-" {
		t.Fatalf("pop on empty = %q, want -", got)
	}
	if got := apply(t, s, "peek"); got != "-" {
		t.Fatalf("peek on empty = %q, want -", got)
	}
}

func TestStackUndo(t *testing.T) {
	s := NewStack()
	apply(t, s, "push a")
	_, undoPush := s.Apply([]byte("push b"))
	res, undoPop := s.Apply([]byte("pop"))
	if string(res) != "b" {
		t.Fatalf("pop = %q", res)
	}
	undoPop()
	undoPush()
	if s.Fingerprint() != "a" {
		t.Fatalf("state after undos = %q, want a", s.Fingerprint())
	}
}

func TestKVOperations(t *testing.T) {
	kv := NewKV()
	if got := apply(t, kv, "get k"); got != "-" {
		t.Fatalf("get missing = %q", got)
	}
	apply(t, kv, "set k v1")
	if got := apply(t, kv, "get k"); got != "v1" {
		t.Fatalf("get = %q", got)
	}
	if got := apply(t, kv, "cas k v1 v2"); got != "ok" {
		t.Fatalf("cas = %q", got)
	}
	if got := apply(t, kv, "cas k v1 v3"); got != "fail" {
		t.Fatalf("stale cas = %q", got)
	}
	if got := apply(t, kv, "del k"); got != "ok" {
		t.Fatalf("del = %q", got)
	}
	if got := apply(t, kv, "del k"); got != "-" {
		t.Fatalf("del missing = %q", got)
	}
}

func TestKVUndoRestores(t *testing.T) {
	kv := NewKV()
	apply(t, kv, "set k v1")
	before := kv.Fingerprint()
	_, undoSet := kv.Apply([]byte("set k v2"))
	_, undoDel := kv.Apply([]byte("del k"))
	undoDel()
	undoSet()
	if kv.Fingerprint() != before {
		t.Fatalf("state = %q, want %q", kv.Fingerprint(), before)
	}
	// Undo of a set that created the key must remove it.
	_, undoCreate := kv.Apply([]byte("set fresh v"))
	undoCreate()
	if got := apply(t, kv, "get fresh"); got != "-" {
		t.Fatalf("undo of creating set left %q", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	if got := apply(t, c, "add 5"); got != "5" {
		t.Fatalf("add = %q", got)
	}
	if got := apply(t, c, "add -2"); got != "3" {
		t.Fatalf("add = %q", got)
	}
	_, undo := c.Apply([]byte("add 100"))
	undo()
	if c.Value() != 3 {
		t.Fatalf("value = %d, want 3", c.Value())
	}
	if got := apply(t, c, "add x"); got[:3] != "ERR" {
		t.Fatalf("bad number = %q", got)
	}
}

func TestBankTransactions(t *testing.T) {
	b := NewBank()
	apply(t, b, "open alice")
	apply(t, b, "open bob")
	if got := apply(t, b, "open alice"); got != "ERR exists" {
		t.Fatalf("double open = %q", got)
	}
	if got := apply(t, b, "deposit alice 100"); got != "100" {
		t.Fatalf("deposit = %q", got)
	}
	if got := apply(t, b, "withdraw alice 150"); got != "ERR insufficient" {
		t.Fatalf("overdraw = %q", got)
	}
	if got := apply(t, b, "transfer alice bob 30"); got != "ok" {
		t.Fatalf("transfer = %q", got)
	}
	if got := apply(t, b, "balance alice"); got != "70" {
		t.Fatalf("alice = %q", got)
	}
	if got := apply(t, b, "balance bob"); got != "30" {
		t.Fatalf("bob = %q", got)
	}
	if b.TotalMoney() != 100 {
		t.Fatalf("money not conserved: %d", b.TotalMoney())
	}
	if got := apply(t, b, "transfer alice alice 10"); got != "ok" {
		t.Fatalf("self transfer = %q", got)
	}
	if got := apply(t, b, "balance alice"); got != "70" {
		t.Fatalf("self transfer changed balance: %q", got)
	}
}

func TestBankTransferRollback(t *testing.T) {
	b := NewBank()
	apply(t, b, "open a")
	apply(t, b, "open b")
	apply(t, b, "deposit a 50")
	before := b.Fingerprint()
	_, rollback := b.Apply([]byte("transfer a b 20"))
	rollback()
	if b.Fingerprint() != before {
		t.Fatalf("rollback incomplete: %q vs %q", b.Fingerprint(), before)
	}
}

func TestQueueFIFOAndUndo(t *testing.T) {
	q := NewQueue()
	apply(t, q, "enq a")
	apply(t, q, "enq b")
	if got := apply(t, q, "len"); got != "2" {
		t.Fatalf("len = %q", got)
	}
	res, undoDeq := q.Apply([]byte("deq"))
	if string(res) != "a" {
		t.Fatalf("deq = %q, want a (FIFO)", res)
	}
	undoDeq()
	if got := apply(t, q, "deq"); got != "a" {
		t.Fatalf("deq after undo = %q, want a again", got)
	}
	if got := apply(t, q, "deq"); got != "b" {
		t.Fatalf("deq = %q", got)
	}
	if got := apply(t, q, "deq"); got != "-" {
		t.Fatalf("deq empty = %q", got)
	}
}

func TestInvalidCommandsDeterministic(t *testing.T) {
	for _, name := range Names() {
		m, _ := New(name)
		m2, _ := New(name)
		for _, bad := range []string{"", "bogus", "push", "set onlykey", "add", "deq x y z extra"} {
			r1, _ := m.Apply([]byte(bad))
			r2, _ := m2.Apply([]byte(bad))
			if string(r1) != string(r2) {
				t.Errorf("%s: nondeterministic result for %q: %q vs %q", name, bad, r1, r2)
			}
		}
		if m.Fingerprint() != m2.Fingerprint() {
			t.Errorf("%s: states diverged on invalid commands", name)
		}
	}
}

// randomCmd generates a random valid-ish command for the named machine.
func randomCmd(name string, rng *rand.Rand) string {
	v := strconv.Itoa(rng.Intn(5))
	switch name {
	case "stack":
		return []string{"push " + v, "pop", "peek"}[rng.Intn(3)]
	case "kv":
		return []string{"set k" + v + " x" + v, "get k" + v, "del k" + v, "cas k" + v + " x0 y"}[rng.Intn(4)]
	case "counter":
		return "add " + strconv.Itoa(rng.Intn(21)-10)
	case "bank":
		return []string{"open a" + v, "deposit a" + v + " 10", "withdraw a" + v + " 5", "transfer a0 a1 3", "balance a" + v}[rng.Intn(5)]
	case "queue":
		return []string{"enq " + v, "deq", "len"}[rng.Intn(3)]
	default:
		return "cmd" + v
	}
}

// TestPropUndoRestoresState is the core OAR requirement: applying any
// sequence of commands and undoing them in reverse order must restore the
// exact prior state — for every machine.
func TestPropUndoRestoresState(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m, _ := New(name)
				// Some committed history first.
				for i := 0; i < rng.Intn(20); i++ {
					m.Apply([]byte(randomCmd(name, rng)))
				}
				before := m.Fingerprint()
				var undos []func()
				for i := 0; i < rng.Intn(20); i++ {
					_, undo := m.Apply([]byte(randomCmd(name, rng)))
					undos = append(undos, undo)
				}
				for i := len(undos) - 1; i >= 0; i-- {
					undos[i]()
				}
				if got := m.Fingerprint(); got != before {
					t.Fatalf("seed %d: undo did not restore state: %q vs %q", seed, got, before)
				}
			}
		})
	}
}

// TestPropDeterminism: two replicas applying the same command sequence end
// in identical states with identical results — the precondition for active
// replication.
func TestPropDeterminism(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cmds := make([]string, 50)
				for i := range cmds {
					cmds[i] = randomCmd(name, rng)
				}
				a, _ := New(name)
				b, _ := New(name)
				for _, c := range cmds {
					ra, _ := a.Apply([]byte(c))
					rb, _ := b.Apply([]byte(c))
					if string(ra) != string(rb) {
						t.Fatalf("results diverged on %q: %q vs %q", c, ra, rb)
					}
				}
				if a.Fingerprint() != b.Fingerprint() {
					t.Fatalf("states diverged")
				}
			}
		})
	}
}

func TestReaderQueryMatchesApply(t *testing.T) {
	// For every machine with a read-only subset, Query of a read-only command
	// must match Apply's result byte for byte and leave the state unchanged.
	cases := []struct {
		machine string
		setup   []string
		reads   []string
		writes  []string // commands Query must refuse
	}{
		{"kv", []string{"set a 1", "set b 2"}, []string{"get a", "get b", "get missing"}, []string{"set a 9", "del a", "cas a 1 2", "get", "get a b"}},
		{"counter", []string{"add 7"}, []string{"get"}, []string{"add 1", "get extra"}},
		{"bank", []string{"open acc", "deposit acc 50"}, []string{"balance acc", "balance ghost"}, []string{"deposit acc 1", "withdraw acc 1", "balance", "balance a b"}},
		{"queue", []string{"enq x", "enq y"}, []string{"peek", "len"}, []string{"enq z", "deq", "peek extra"}},
	}
	for _, tc := range cases {
		m, err := New(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range tc.setup {
			m.Apply([]byte(cmd))
		}
		before := m.Fingerprint()
		for _, cmd := range tc.reads {
			got, ok := m.Query([]byte(cmd))
			if !ok {
				t.Errorf("%s: Query(%q) refused a read-only command", tc.machine, cmd)
				continue
			}
			want, _ := m.Apply([]byte(cmd))
			if string(got) != string(want) {
				t.Errorf("%s: Query(%q) = %q, Apply = %q", tc.machine, cmd, got, want)
			}
		}
		if after := m.Fingerprint(); after != before {
			t.Errorf("%s: reads changed state: %q -> %q", tc.machine, before, after)
		}
		for _, cmd := range tc.writes {
			if res, ok := m.Query([]byte(cmd)); ok {
				t.Errorf("%s: Query(%q) accepted a non-read command (= %q)", tc.machine, cmd, res)
			}
		}
	}
	// Machines without a read-only subset refuse every query.
	for _, name := range []string{"recorder", "stack"} {
		m, _ := New(name)
		m.Apply([]byte("push x"))
		for _, cmd := range []string{"peek", "pop", "push y", "get a"} {
			if res, ok := m.Query([]byte(cmd)); ok {
				t.Errorf("%s: Query(%q) answered %q", name, cmd, res)
			}
		}
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue()
	if got := apply(t, q, "peek"); got != "-" {
		t.Fatalf("peek empty = %q", got)
	}
	apply(t, q, "enq a")
	apply(t, q, "enq b")
	if got := apply(t, q, "peek"); got != "a" {
		t.Fatalf("peek = %q, want a", got)
	}
	apply(t, q, "deq")
	if got := apply(t, q, "peek"); got != "b" {
		t.Fatalf("peek after deq = %q, want b", got)
	}
}
