package app

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
)

// snapHeader frames every app snapshot: "appsnap1 <machine> <crc32>\n".
const snapHeader = "appsnap1"

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeSnap frames body with the machine name and a Castagnoli CRC.
func encodeSnap(machine string, body string) []byte {
	crc := crc32.Checksum([]byte(body), snapCRCTable)
	return []byte(fmt.Sprintf("%s %s %08x\n%s", snapHeader, machine, crc, body))
}

// decodeSnap validates blob's framing for the given machine and returns
// the body.
func decodeSnap(machine string, blob []byte) (string, error) {
	s := string(blob)
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return "", fmt.Errorf("app: %s restore: missing snapshot header", machine)
	}
	head, body := s[:nl], s[nl+1:]
	f := strings.Fields(head)
	if len(f) != 3 || f[0] != snapHeader {
		return "", fmt.Errorf("app: %s restore: bad snapshot header %q", machine, head)
	}
	if f[1] != machine {
		return "", fmt.Errorf("app: %s restore: snapshot is for machine %q", machine, f[1])
	}
	want, err := strconv.ParseUint(f[2], 16, 32)
	if err != nil {
		return "", fmt.Errorf("app: %s restore: bad snapshot checksum field %q", machine, f[2])
	}
	got := crc32.Checksum([]byte(body), snapCRCTable)
	if uint32(want) != got {
		return "", fmt.Errorf("app: %s restore: snapshot checksum mismatch (want %08x, got %08x)", machine, want, got)
	}
	return body, nil
}

// nonEmptyLines splits body into lines, dropping the trailing empty line.
func nonEmptyLines(body string) []string {
	if body == "" {
		return nil
	}
	lines := strings.Split(body, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// --- KV ---

// Snapshot implements Machine: one "key value" line per entry, in
// fingerprint (sorted-key) order.
func (kv *KV) Snapshot() ([]byte, error) {
	var b strings.Builder
	for _, k := range sortedKeys(kv.data) {
		fmt.Fprintf(&b, "%s %s\n", k, kv.data[k])
	}
	return encodeSnap("kv", b.String()), nil
}

// Restore implements Machine.
func (kv *KV) Restore(blob []byte) error {
	body, err := decodeSnap("kv", blob)
	if err != nil {
		return err
	}
	data := make(map[string]string)
	for _, line := range nonEmptyLines(body) {
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("app: kv restore: bad entry %q", line)
		}
		data[f[0]] = f[1]
	}
	kv.data = data
	return nil
}

// --- Counter ---

// Snapshot implements Machine.
func (c *Counter) Snapshot() ([]byte, error) {
	return encodeSnap("counter", strconv.FormatInt(c.value, 10)), nil
}

// Restore implements Machine.
func (c *Counter) Restore(blob []byte) error {
	body, err := decodeSnap("counter", blob)
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(body), 10, 64)
	if err != nil {
		return fmt.Errorf("app: counter restore: bad value %q", body)
	}
	c.value = v
	return nil
}

// --- Bank ---

// Snapshot implements Machine: one "account balance" line per account, in
// sorted order.
func (b *Bank) Snapshot() ([]byte, error) {
	var sb strings.Builder
	for _, a := range sortedKeys(b.accounts) {
		fmt.Fprintf(&sb, "%s %d\n", a, b.accounts[a])
	}
	return encodeSnap("bank", sb.String()), nil
}

// Restore implements Machine.
func (b *Bank) Restore(blob []byte) error {
	body, err := decodeSnap("bank", blob)
	if err != nil {
		return err
	}
	accounts := make(map[string]int64)
	for _, line := range nonEmptyLines(body) {
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("app: bank restore: bad entry %q", line)
		}
		bal, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("app: bank restore: bad balance %q", line)
		}
		accounts[f[0]] = bal
	}
	b.accounts = accounts
	return nil
}

// --- Queue ---

// Snapshot implements Machine. The consumed prefix and head index are kept
// verbatim — Fingerprint exposes the head position, and post-restore undo
// closures walk back into the consumed region — so the image is the full
// item slice behind a "head <n>" line.
func (q *Queue) Snapshot() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "head %d\n", q.head)
	for _, it := range q.items {
		fmt.Fprintf(&b, "%s\n", it)
	}
	return encodeSnap("queue", b.String()), nil
}

// Restore implements Machine.
func (q *Queue) Restore(blob []byte) error {
	body, err := decodeSnap("queue", blob)
	if err != nil {
		return err
	}
	lines := nonEmptyLines(body)
	if len(lines) == 0 {
		return fmt.Errorf("app: queue restore: missing head line")
	}
	f := strings.Fields(lines[0])
	if len(f) != 2 || f[0] != "head" {
		return fmt.Errorf("app: queue restore: bad head line %q", lines[0])
	}
	head, err := strconv.Atoi(f[1])
	if err != nil || head < 0 || head > len(lines)-1 {
		return fmt.Errorf("app: queue restore: bad head %q for %d items", f[1], len(lines)-1)
	}
	var items []string
	if len(lines) > 1 {
		items = append(items, lines[1:]...)
	}
	q.items, q.head = items, head
	return nil
}

// --- Recorder ---

// Snapshot implements Machine: one quoted command per line (commands may
// contain whitespace, unlike the token-valued machines above).
func (r *Recorder) Snapshot() ([]byte, error) {
	var b strings.Builder
	for _, cmd := range r.log {
		fmt.Fprintf(&b, "%s\n", strconv.Quote(cmd))
	}
	return encodeSnap("recorder", b.String()), nil
}

// Restore implements Machine.
func (r *Recorder) Restore(blob []byte) error {
	body, err := decodeSnap("recorder", blob)
	if err != nil {
		return err
	}
	var log []string
	for _, line := range nonEmptyLines(body) {
		cmd, err := strconv.Unquote(line)
		if err != nil {
			return fmt.Errorf("app: recorder restore: bad entry %q", line)
		}
		log = append(log, cmd)
	}
	r.log = log
	return nil
}

// --- Stack ---

// Snapshot implements Machine: one item per line, bottom first.
func (s *Stack) Snapshot() ([]byte, error) {
	var b strings.Builder
	for _, it := range s.items {
		fmt.Fprintf(&b, "%s\n", it)
	}
	return encodeSnap("stack", b.String()), nil
}

// Restore implements Machine.
func (s *Stack) Restore(blob []byte) error {
	body, err := decodeSnap("stack", blob)
	if err != nil {
		return err
	}
	s.items = nonEmptyLines(body)
	return nil
}

// sortedKeys returns m's keys sorted, for deterministic snapshot bodies.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
