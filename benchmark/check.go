package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
)

// The correctness gate runs after each measured window, with the clock
// stopped. Every check returns its evidence as text; any evidence at all
// makes the run incorrect.

// audit reads every key and checks that no acknowledged write was lost: the
// value returned must be the acknowledged write the total order put last
// (each acknowledgement carries its position), or a write that failed and so
// may still have been applied. read is the ordered path of one endpoint.
func audit(ctx context.Context, read func(context.Context, []byte) (reply, error), workers []*worker) []string {
	var evidence []string
	for k := uint64(0); k < keys; k++ {
		r, err := read(ctx, fmt.Appendf(nil, "get k%08d", k))
		if err != nil {
			evidence = append(evidence, fmt.Sprintf("audit: read of k%08d failed: %v", k, err))
			continue
		}
		want, writer := ack{value: preloadValue}, -1
		for _, w := range workers {
			if a, ok := w.acked[k]; ok && a.pos > want.pos {
				want, writer = a, w.id
			}
		}
		if bytes.Equal(r.result, want.value) || wasUnacked(workers, k, r.result) {
			continue
		}
		evidence = append(evidence, fmt.Sprintf(
			"audit: k%08d reads %q, but the last acknowledged write was %q (worker %d, position %d): an adopted write was lost",
			k, r.result, want.value, writer, want.pos))
	}
	return evidence
}

func wasUnacked(workers []*worker, key uint64, value []byte) bool {
	for _, w := range workers {
		for _, v := range w.unacked[key] {
			if bytes.Equal(v, value) {
				return true
			}
		}
	}
	return false
}

// converged polls observe until every replica reports the same state, and
// returns evidence if they still differ at the deadline. Replicas apply a
// reply's command at their own pace, so right after the last reply a follower
// may be a few commands behind; divergence that outlives the deadline is real.
func converged(what string, timeout time.Duration, observe func() ([]string, error)) []string {
	var (
		states []string
		err    error
	)
	same := cluster.WaitUntil(timeout, func() bool {
		states, err = observe()
		if err != nil {
			return false
		}
		for _, s := range states[1:] {
			if s != states[0] {
				return false
			}
		}
		return true
	})
	if same {
		return nil
	}
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", what, err)}
	}
	return []string{fmt.Sprintf("%s differs across replicas after %v: %v", what, timeout, states)}
}

// replicaStates observes what the replicas of the system hold: a digest of
// Machine(0,i).Fingerprint() on a cluster, the delivered count of each
// server's /stats report over TCP.
func (s *system) replicaStates() ([]string, error) {
	states := make([]string, replicas)
	for i := range states {
		if s.mem != nil {
			h := fnv.New64a()
			h.Write([]byte(s.mem.Machine(0, i).Fingerprint()))
			states[i] = fmt.Sprintf("%016x", h.Sum64())
			continue
		}
		rep, err := s.tcp.report(i)
		if err != nil {
			return nil, err
		}
		states[i] = fmt.Sprintf("delivered=%d", rep.Delivered)
	}
	return states, nil
}

// gate runs every check that applies to an untraced run and returns the
// evidence of the ones that failed.
func gate(sys *system, workers []*worker) []string {
	var evidence []string
	for _, w := range workers {
		evidence = append(evidence, w.violations...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	evidence = append(evidence, audit(ctx, sys.eps[0].write, workers)...)
	what := "machine fingerprint"
	if sys.tcp != nil {
		what = "delivered count"
	}
	return append(evidence, converged(what, 10*time.Second, sys.replicaStates)...)
}
