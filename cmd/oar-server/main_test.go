package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsRejectsRankOutsidePeers: a -rank that indexes past (or
// before) the -peers list must come back as a usage error, not reach the
// start-up banner's addrs[rank].
func TestParseFlagsRejectsRankOutsidePeers(t *testing.T) {
	for _, rank := range []string{"3", "-1"} {
		_, err := parseFlags([]string{"-rank", rank, "-peers", "a:1,b:2,c:3"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-rank "+rank) {
			t.Errorf("-rank %s with 3 peers: err = %v, want a -rank usage error", rank, err)
		}
	}
	if _, err := parseFlags([]string{"-rank", "0"}, io.Discard); err == nil {
		t.Error("missing -peers accepted")
	}
	opts, err := parseFlags([]string{"-rank", "2", "-peers", "a:1,b:2,c:3", "-wal-dir", "/w"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Rank != 2 || len(opts.Peers) != 3 || opts.Peers[2] != "c:3" || opts.WALDir != "/w" || opts.Machine != "kv" {
		t.Errorf("options = %+v", opts)
	}
}
