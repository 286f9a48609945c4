package transport

import "runtime"

// DrainLinger forms one batching round over ch: it opportunistically absorbs
// the backlog that has already arrived into handle, lingering up to spins
// consecutive empty-channel scheduler yields — companion messages of the
// round (relayed copies, the other replicas' traffic, a concurrent Invoke's
// frames) are frequently in flight on runnable goroutines, and yielding lets
// them join the round, making every coalesced outbound frame
// correspondingly larger. An idle channel pays only the yields; a flooded
// one stops at maxAbsorb messages so the caller's flush always runs and the
// backlog stays hot.
//
// It reports how many messages were absorbed and whether the channel is
// still open (a closed channel ends the round immediately — for a replica
// inbox that is crash injection, and the caller's event loop should exit).
// spins <= 0 disables round formation entirely: the unbatched experiment
// control handles one message per round.
//
// Both event loops that batch — the replica runtime's and the client
// sender's (internal/backend) — form their rounds through this one function,
// so "a round" means the same thing under every protocol.
func DrainLinger[T any](ch <-chan T, spins, maxAbsorb int, handle func(T)) (absorbed int, open bool) {
	for s := 0; s < spins; s++ {
	drain:
		for absorbed < maxAbsorb {
			select {
			case m, ok := <-ch:
				if !ok {
					return absorbed, false
				}
				handle(m)
				absorbed++
				s = -1 // progress: restart the linger
			default:
				break drain
			}
		}
		if absorbed >= maxAbsorb {
			break // round full: flush now
		}
		runtime.Gosched()
	}
	return absorbed, true
}
