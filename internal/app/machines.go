package app

import (
	"fmt"
	"strconv"
	"strings"
)

// --- Recorder ---

// Recorder is the state machine used by the correctness arguments of
// Appendix A: the reply to the i-th processed request is i itself. It also
// keeps the full command log, so tests can compare the exact histories of
// two replicas.
type Recorder struct {
	log []string
}

var _ Machine = (*Recorder)(nil)

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Apply implements Machine: the result is the 1-based processing position.
func (r *Recorder) Apply(cmd []byte) ([]byte, func()) {
	r.log = append(r.log, string(cmd))
	pos := len(r.log)
	return []byte(strconv.Itoa(pos)), func() {
		r.log = r.log[:len(r.log)-1]
	}
}

// Fingerprint implements Machine.
func (r *Recorder) Fingerprint() string { return strings.Join(r.log, "|") }

// Query implements Machine: a recorder has no read-only command.
func (r *Recorder) Query([]byte) ([]byte, bool) { return nil, false }

// Log returns the applied commands in order.
func (r *Recorder) Log() []string { return append([]string(nil), r.log...) }

// --- Stack ---

// Stack is the replicated stack of Figure 1 of the paper. Commands:
//
//	push <v>  -> result "ok"
//	pop       -> result <v> or "-" when empty (as in the figure)
//	peek      -> result <v> or "-"
type Stack struct {
	items []string
}

var _ Machine = (*Stack)(nil)

// NewStack creates an empty stack.
func NewStack() *Stack { return &Stack{} }

// Apply implements Machine.
func (s *Stack) Apply(cmd []byte) ([]byte, func()) {
	f := fields(cmd)
	if len(f) == 0 {
		return errResult("empty command"), noop
	}
	switch f[0] {
	case "push":
		if len(f) != 2 {
			return errResult("usage: push <v>"), noop
		}
		s.items = append(s.items, f[1])
		return []byte("ok"), func() { s.items = s.items[:len(s.items)-1] }
	case "pop":
		if len(s.items) == 0 {
			return []byte("-"), noop
		}
		v := s.items[len(s.items)-1]
		s.items = s.items[:len(s.items)-1]
		return []byte(v), func() { s.items = append(s.items, v) }
	case "peek":
		if len(s.items) == 0 {
			return []byte("-"), noop
		}
		return []byte(s.items[len(s.items)-1]), noop
	default:
		return errResult("unknown op %q", f[0]), noop
	}
}

// Fingerprint implements Machine.
func (s *Stack) Fingerprint() string { return strings.Join(s.items, "|") }

// Query implements Machine: no stack command is served off the ordered
// path.
func (s *Stack) Query([]byte) ([]byte, bool) { return nil, false }

// Depth returns the current stack depth.
func (s *Stack) Depth() int { return len(s.items) }

// --- KV ---

// KV is a replicated key-value store. Commands:
//
//	set <k> <v>        -> "ok"
//	get <k>            -> <v> or "-"
//	del <k>            -> "ok" or "-"
//	cas <k> <old> <new> -> "ok" or "fail"
type KV struct {
	data map[string]string
}

var _ Machine = (*KV)(nil)

// NewKV creates an empty store.
func NewKV() *KV { return &KV{data: make(map[string]string)} }

// Apply implements Machine.
func (kv *KV) Apply(cmd []byte) ([]byte, func()) {
	f := fields(cmd)
	if len(f) == 0 {
		return errResult("empty command"), noop
	}
	switch f[0] {
	case "set":
		if len(f) != 3 {
			return errResult("usage: set <k> <v>"), noop
		}
		k, v := f[1], f[2]
		old, had := kv.data[k]
		kv.data[k] = v
		return []byte("ok"), func() {
			if had {
				kv.data[k] = old
			} else {
				delete(kv.data, k)
			}
		}
	case "get":
		if len(f) != 2 {
			return errResult("usage: get <k>"), noop
		}
		if v, ok := kv.data[f[1]]; ok {
			return []byte(v), noop
		}
		return []byte("-"), noop
	case "del":
		if len(f) != 2 {
			return errResult("usage: del <k>"), noop
		}
		k := f[1]
		old, had := kv.data[k]
		if !had {
			return []byte("-"), noop
		}
		delete(kv.data, k)
		return []byte("ok"), func() { kv.data[k] = old }
	case "cas":
		if len(f) != 4 {
			return errResult("usage: cas <k> <old> <new>"), noop
		}
		k, oldWant, newVal := f[1], f[2], f[3]
		cur, had := kv.data[k]
		if !had || cur != oldWant {
			return []byte("fail"), noop
		}
		kv.data[k] = newVal
		return []byte("ok"), func() { kv.data[k] = cur }
	default:
		return errResult("unknown op %q", f[0]), noop
	}
}

// Query implements Machine: "get <k>" is the read-only command.
func (kv *KV) Query(cmd []byte) ([]byte, bool) {
	f := fields(cmd)
	if len(f) != 2 || f[0] != "get" {
		return nil, false
	}
	if v, ok := kv.data[f[1]]; ok {
		return []byte(v), true
	}
	return []byte("-"), true
}

// Fingerprint implements Machine.
func (kv *KV) Fingerprint() string { return mapFingerprint(kv.data) }

// Len returns the number of keys.
func (kv *KV) Len() int { return len(kv.data) }

// --- Counter ---

// Counter is a replicated integer. Commands:
//
//	add <n> -> new value
//	get     -> value
type Counter struct {
	value int64
}

var _ Machine = (*Counter)(nil)

// NewCounter creates a counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Apply implements Machine.
func (c *Counter) Apply(cmd []byte) ([]byte, func()) {
	f := fields(cmd)
	if len(f) == 0 {
		return errResult("empty command"), noop
	}
	switch f[0] {
	case "add":
		if len(f) != 2 {
			return errResult("usage: add <n>"), noop
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return errResult("bad number %q", f[1]), noop
		}
		c.value += n
		return []byte(strconv.FormatInt(c.value, 10)), func() { c.value -= n }
	case "get":
		return []byte(strconv.FormatInt(c.value, 10)), noop
	default:
		return errResult("unknown op %q", f[0]), noop
	}
}

// Query implements Machine: "get" is the read-only command.
func (c *Counter) Query(cmd []byte) ([]byte, bool) {
	f := fields(cmd)
	if len(f) != 1 || f[0] != "get" {
		return nil, false
	}
	return []byte(strconv.FormatInt(c.value, 10)), true
}

// Fingerprint implements Machine.
func (c *Counter) Fingerprint() string { return strconv.FormatInt(c.value, 10) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.value }

// --- Bank ---

// Bank is the transactional application motivating Section 6 of the paper:
// each command is a transaction whose undo closure is its rollback. Commands:
//
//	open <acct>              -> "ok" or "ERR exists"
//	deposit <acct> <amt>     -> new balance
//	withdraw <acct> <amt>    -> new balance or "ERR insufficient"
//	transfer <from> <to> <amt> -> "ok" or "ERR ..."
//	balance <acct>           -> balance or "ERR no-account"
type Bank struct {
	accounts map[string]int64
}

var _ Machine = (*Bank)(nil)

// NewBank creates a bank with no accounts.
func NewBank() *Bank { return &Bank{accounts: make(map[string]int64)} }

// Apply implements Machine.
func (b *Bank) Apply(cmd []byte) ([]byte, func()) {
	f := fields(cmd)
	if len(f) == 0 {
		return errResult("empty command"), noop
	}
	switch f[0] {
	case "open":
		if len(f) != 2 {
			return errResult("usage: open <acct>"), noop
		}
		a := f[1]
		if _, ok := b.accounts[a]; ok {
			return errResult("exists"), noop
		}
		b.accounts[a] = 0
		return []byte("ok"), func() { delete(b.accounts, a) }
	case "deposit", "withdraw":
		if len(f) != 3 {
			return errResult("usage: %s <acct> <amt>", f[0]), noop
		}
		a := f[1]
		amt, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || amt < 0 {
			return errResult("bad amount %q", f[2]), noop
		}
		bal, ok := b.accounts[a]
		if !ok {
			return errResult("no-account"), noop
		}
		if f[0] == "withdraw" {
			if bal < amt {
				return errResult("insufficient"), noop
			}
			amt = -amt
		}
		b.accounts[a] = bal + amt
		return []byte(strconv.FormatInt(bal+amt, 10)), func() { b.accounts[a] = bal }
	case "transfer":
		if len(f) != 4 {
			return errResult("usage: transfer <from> <to> <amt>"), noop
		}
		from, to := f[1], f[2]
		amt, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil || amt < 0 {
			return errResult("bad amount %q", f[3]), noop
		}
		fromBal, okF := b.accounts[from]
		toBal, okT := b.accounts[to]
		if !okF || !okT {
			return errResult("no-account"), noop
		}
		if from == to {
			return []byte("ok"), noop
		}
		if fromBal < amt {
			return errResult("insufficient"), noop
		}
		b.accounts[from] = fromBal - amt
		b.accounts[to] = toBal + amt
		return []byte("ok"), func() {
			b.accounts[from] = fromBal
			b.accounts[to] = toBal
		}
	case "balance":
		if len(f) != 2 {
			return errResult("usage: balance <acct>"), noop
		}
		bal, ok := b.accounts[f[1]]
		if !ok {
			return errResult("no-account"), noop
		}
		return []byte(strconv.FormatInt(bal, 10)), noop
	default:
		return errResult("unknown op %q", f[0]), noop
	}
}

// Query implements Machine: "balance <acct>" is the read-only command.
func (b *Bank) Query(cmd []byte) ([]byte, bool) {
	f := fields(cmd)
	if len(f) != 2 || f[0] != "balance" {
		return nil, false
	}
	bal, ok := b.accounts[f[1]]
	if !ok {
		return errResult("no-account"), true
	}
	return []byte(strconv.FormatInt(bal, 10)), true
}

// Fingerprint implements Machine.
func (b *Bank) Fingerprint() string { return mapFingerprint(b.accounts) }

// TotalMoney returns the sum of all balances — an invariant under transfer.
func (b *Bank) TotalMoney() int64 {
	var sum int64
	for _, v := range b.accounts {
		sum += v
	}
	return sum
}

// --- Queue ---

// Queue is a replicated FIFO queue. Commands:
//
//	enq <v> -> "ok"
//	deq     -> <v> or "-"
//	peek    -> <v> or "-"
//	len     -> length
type Queue struct {
	items []string
	head  int
}

var _ Machine = (*Queue)(nil)

// NewQueue creates an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Apply implements Machine.
func (q *Queue) Apply(cmd []byte) ([]byte, func()) {
	f := fields(cmd)
	if len(f) == 0 {
		return errResult("empty command"), noop
	}
	switch f[0] {
	case "enq":
		if len(f) != 2 {
			return errResult("usage: enq <v>"), noop
		}
		q.items = append(q.items, f[1])
		return []byte("ok"), func() { q.items = q.items[:len(q.items)-1] }
	case "deq":
		if q.head == len(q.items) {
			return []byte("-"), noop
		}
		v := q.items[q.head]
		q.head++
		return []byte(v), func() { q.head-- }
	case "peek":
		if q.head == len(q.items) {
			return []byte("-"), noop
		}
		return []byte(q.items[q.head]), noop
	case "len":
		return []byte(strconv.Itoa(len(q.items) - q.head)), noop
	default:
		return errResult("unknown op %q", f[0]), noop
	}
}

// Query implements Machine: "peek" and "len" are the read-only commands.
func (q *Queue) Query(cmd []byte) ([]byte, bool) {
	f := fields(cmd)
	if len(f) != 1 {
		return nil, false
	}
	switch f[0] {
	case "peek":
		if q.head == len(q.items) {
			return []byte("-"), true
		}
		return []byte(q.items[q.head]), true
	case "len":
		return []byte(strconv.Itoa(len(q.items) - q.head)), true
	default:
		return nil, false
	}
}

// Fingerprint implements Machine.
func (q *Queue) Fingerprint() string {
	return fmt.Sprintf("%d:%s", q.head, strings.Join(q.items[q.head:], "|"))
}
