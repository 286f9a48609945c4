// Durability and crash-recovery, once for every protocol: persistence of the
// definitive order (in memory always, in a WAL for a protocol that journals),
// snapshots at protocol boundaries, and the peer catch-up a restarted replica
// runs before it re-enters ordering.
//
// The durability contract is scoped to definitive delivery: optimistic
// deliveries are revocable by design, so only what a protocol Commits is
// kept. With SyncAlways the WAL is synced once per Boundary, inside the round
// that closed it and therefore before that round's replies ship — every reply
// a client could adopt as definitive is backed by disk.
//
// Recovery has two phases here and a third that is the protocol's:
//
//  1. Local replay (initDurability, at boot): restore the newest valid
//     snapshot, then replay the WAL suffix. This rebuilds the machine, Pos,
//     Epoch and the at-most-once filter without any network traffic.
//  2. Peer catch-up (recovering): the replica sets the protocol's ordering
//     traffic aside, refuses fast-path reads and probes its peers every few
//     ticks with its position. A peer answers with its boundary state when
//     its protocol says it may (Protocol.CanServe) and with a bare "busy"
//     otherwise; the first answer the protocol accepts (Protocol.Accept) that
//     extends the local prefix is adopted — snapshot restore and/or suffix
//     replay, journaled like a local delivery.
//  3. Protocol.Resume replays the deferred frames and rejoins the group.
package backend

import (
	"encoding/binary"
	"fmt"

	"repro/internal/proto"
	"repro/internal/wal"
	"repro/internal/wire"
)

// recoveryProbeTicks is how many ticks a recovering replica waits between
// catch-up probes.
const recoveryProbeTicks = 4

// maxRecoveryBuffer bounds the deferred-frame buffer of a recovering replica;
// beyond it further frames are dropped (what matters is re-delivered by the
// protocol's own agreement once the replica is back).
const maxRecoveryBuffer = 1 << 14

// initDurability opens the WAL (for a journaling protocol with a WALDir),
// replays the local snapshot and log into the machine, and decides whether
// the replica boots into recovery.
func (rt *Runtime) initDurability() error {
	rt.snapEvery = rt.Cfg.SnapshotEvery
	if rt.snapEvery == 0 {
		rt.snapEvery = DefaultSnapshotEvery
	}
	if rt.spec.Journal && rt.Cfg.WALDir != "" {
		if err := rt.replayLocal(); err != nil {
			return err
		}
	}
	// Any non-empty local history — and any explicit restart — must go
	// through peer catch-up before rejoining: the group has moved on, and a
	// replica that rejoins at a stale epoch would stall waiting for messages
	// that were sent before its boot. A single-replica group has no peers
	// and no concurrent history to miss: its local replay is the recovery.
	if !rt.Cfg.Recovering && rt.Pos == 0 && rt.Epoch == 0 {
		return nil
	}
	if t, ok := rt.Cfg.Tracer.(RecoveryTracer); ok {
		t.Restarted(rt.Cfg.ID)
	}
	if len(rt.Cfg.Group) > 1 {
		rt.recovering = true
		rt.catchupTick = recoveryProbeTicks // the first tick probes at once
	} else {
		rt.recovered()
	}
	return nil
}

// replayLocal restores the newest snapshot in WALDir and replays the log
// suffix after it.
func (rt *Runtime) replayLocal() error {
	// The log is opened SyncNever: the runtime syncs explicitly, once per
	// boundary, when the policy is SyncAlways.
	log, err := wal.Open(wal.Options{Dir: rt.Cfg.WALDir, Sync: wal.SyncNever})
	if err != nil {
		return fmt.Errorf("backend: open wal: %w", err)
	}
	rt.log = log
	snap, ok, err := wal.LoadSnapshot(rt.Cfg.WALDir)
	if err != nil {
		return fmt.Errorf("backend: load snapshot: %w", err)
	}
	from := log.Start()
	if ok {
		blob, err := DecodeSnapshotBlob(snap.Data)
		if err == nil {
			err = rt.restore(blob, snap.Data)
		}
		if err != nil {
			return fmt.Errorf("backend: snapshot %d: %w", snap.Pos, err)
		}
		from = snap.Pos
	}
	err = log.Replay(from, func(_ uint64, typ wal.RecordType, payload []byte) error {
		switch typ {
		case wal.RecordCommand:
			r := wire.NewReader(payload)
			req := proto.DecodeRequest(r)
			if err := r.Err(); err != nil {
				return fmt.Errorf("decode command record: %w", err)
			}
			rt.applyDefinitive(req)
		case wal.RecordEpoch:
			if len(payload) != 8 {
				return fmt.Errorf("bad epoch marker length %d", len(payload))
			}
			rt.Epoch = binary.LittleEndian.Uint64(payload) + 1
			rt.ds.Epoch = rt.Epoch
		}
		return nil // RecordConfig markers are forward-compat; skip
	})
	if err != nil {
		return fmt.Errorf("backend: wal replay: %w", err)
	}
	return nil
}

// restore installs a decoded snapshot: machine image, position, epoch, the
// at-most-once filter and the catch-up base. encoded is the blob's wire form,
// copied for serving catch-up.
func (rt *Runtime) restore(blob SnapshotBlob, encoded []byte) error {
	if err := rt.Cfg.Machine.Restore(blob.Image); err != nil {
		return err
	}
	rt.Pos, rt.Epoch = blob.Pos, blob.Epoch
	rt.Delivered = make(map[proto.RequestID]struct{}, len(blob.Delivered))
	for _, id := range blob.Delivered {
		rt.Delivered[id] = struct{}{}
	}
	rt.ds = DurableState{
		SnapBlob: append([]byte(nil), encoded...),
		SnapPos:  blob.Pos,
		Tail:     rt.ds.Tail[:0],
		Pos:      blob.Pos,
		Epoch:    blob.Epoch,
	}
	return nil
}

// applyDefinitive applies one already-definitive command: machine, position,
// at-most-once filter, catch-up tail. Used by WAL replay and catch-up
// adoption — never on the live path, where the protocol owns delivery.
func (rt *Runtime) applyDefinitive(req proto.Request) {
	rt.Cfg.Machine.Apply(req.Cmd)
	rt.Pos++
	rt.Delivered[req.ID] = struct{}{}
	rt.ds.Append(req)
}

// Commit records that req — already applied to the machine and counted in
// Pos — is now definitively delivered, in delivery order: at-most-once
// filter, catch-up tail, and the WAL when journaling.
func (rt *Runtime) Commit(req proto.Request) {
	rt.Delivered[req.ID] = struct{}{}
	rt.ds.Append(req)
	rt.journal(req)
}

// Boundary records that the definitive prefix stands at a boundary of the
// protocol, now in epoch Epoch (OAR: an epoch closed; fixedseq: an order was
// delivered; ctab: a batch was decided): nothing optimistic is applied, so
// the machine is exactly the committed prefix. The boundary is journaled and
// synced, and a snapshot is taken when the cadence has come round.
func (rt *Runtime) Boundary() {
	rt.ds.Epoch = rt.Epoch
	rt.journalEpoch()
	if rt.snapEvery < 0 {
		return
	}
	rt.sinceSnap++
	due := rt.sinceSnap >= rt.snapEvery
	if n := rt.spec.SnapshotDeliveries; n > 0 {
		due = rt.ds.Pos-rt.ds.SnapPos >= n
	}
	if !due {
		return
	}
	img, err := rt.Cfg.Machine.Snapshot()
	if err != nil {
		return // keep the full tail; snapshotting is an optimization
	}
	rt.sinceSnap = 0
	ids := make([]proto.RequestID, 0, len(rt.Delivered))
	for id := range rt.Delivered {
		ids = append(ids, id)
	}
	blob := EncodeSnapshotBlob(SnapshotBlob{Epoch: rt.ds.Epoch, Pos: rt.ds.Pos, Delivered: ids, Image: img})
	rt.ds.SetSnapshot(blob)
	rt.persistSnapshot(blob)
}

// journal appends one definitive command to the WAL (no-op without one). WAL
// write errors are unrecoverable — the durability contract is broken — so
// they halt the replica like a protocol invariant violation.
func (rt *Runtime) journal(req proto.Request) {
	if rt.log == nil {
		return
	}
	w := wire.Wrap(rt.walBuf[:0])
	req.Encode(&w)
	rt.walBuf = w.Bytes()
	if _, err := rt.log.Append(wal.RecordCommand, rt.walBuf); err != nil {
		panic(fmt.Sprintf("replica %v: wal append: %v", rt.Cfg.ID, err))
	}
}

// journalEpoch appends the marker of the epoch that just closed (Epoch-1)
// and syncs the log.
func (rt *Runtime) journalEpoch() {
	if rt.log == nil {
		return
	}
	if rt.Epoch > 0 {
		var marker [8]byte
		binary.LittleEndian.PutUint64(marker[:], rt.Epoch-1)
		if _, err := rt.log.Append(wal.RecordEpoch, marker[:]); err != nil {
			panic(fmt.Sprintf("replica %v: wal append: %v", rt.Cfg.ID, err))
		}
	}
	if err := rt.log.Sync(); err != nil {
		panic(fmt.Sprintf("replica %v: wal sync: %v", rt.Cfg.ID, err))
	}
}

// persistSnapshot writes an encoded snapshot blob next to the WAL and
// truncates the log prefix it covers. Failures are tolerated: the full log
// remains authoritative.
func (rt *Runtime) persistSnapshot(blob []byte) {
	if rt.log == nil {
		return
	}
	next := rt.log.Next()
	if err := wal.SaveSnapshot(rt.Cfg.WALDir, wal.Snapshot{Pos: next, Epoch: rt.ds.Epoch, Data: blob}); err != nil {
		return
	}
	if next > 0 {
		_ = rt.log.TruncateThrough(next - 1)
	}
}

// recovered marks the end of a recovery.
func (rt *Runtime) recovered() {
	rt.recovering = false
	rt.Count.recoveries.Add(1)
	if t, ok := rt.Cfg.Tracer.(RecoveryTracer); ok {
		t.Recovered(rt.Cfg.ID, rt.Epoch, rt.Pos)
	}
}

// handleRecovering is the dispatcher while catching up: catch-up answers
// drive adoption, fast-path reads are refused (dropped — the live majority
// answers the client), the kinds the protocol names are deferred, and the
// rest — probes we cannot serve, raw requests that will come back inside
// ordering messages — is dropped.
func (rt *Runtime) handleRecovering(from proto.NodeID, kind proto.Kind, body []byte) {
	switch kind {
	case proto.KindCatchupResp:
		rt.handleCatchupResp(from, body)
	case proto.KindRead:
		rt.Count.refusedReads.Add(1)
	default:
		for _, k := range rt.spec.Defer {
			if k == kind && len(rt.deferred) < maxRecoveryBuffer {
				// The body aliases a pooled frame: keep an owned copy.
				rt.deferred = append(rt.deferred, Deferred{From: from, Kind: kind, Body: append([]byte(nil), body...)})
			}
		}
	}
}

// probeCatchup broadcasts a catch-up probe every few ticks while recovering.
func (rt *Runtime) probeCatchup() {
	rt.catchupTick++
	if rt.catchupTick < recoveryProbeTicks {
		return
	}
	rt.catchupTick = 0
	rt.SendToPeers(proto.MarshalCatchupReq(rt.Cfg.GroupID, proto.CatchupReq{HavePos: rt.Pos}))
}

// handleCatchupReq answers a recovering peer's probe: with the state it is
// missing when the protocol allows, with a bare "busy" (InPhase2) otherwise —
// the prober then simply asks again.
func (rt *Runtime) handleCatchupReq(from proto.NodeID, body []byte) {
	req, err := proto.UnmarshalCatchupReq(body)
	if err != nil {
		return
	}
	resp := proto.CatchupResp{CurEpoch: rt.Epoch, InPhase2: true, Pos: rt.ds.Pos, FirstPos: rt.ds.Pos}
	if rt.p.CanServe() {
		resp.InPhase2 = false
		resp.Snap, resp.FirstPos, resp.Entries = rt.ds.Respond(req.HavePos)
		if len(resp.Entries) > 0 || len(resp.Snap) > 0 {
			rt.Count.catchupServed.Add(1)
		}
	}
	rt.Send(from, proto.MarshalCatchupResp(rt.Cfg.GroupID, resp))
}

// handleCatchupResp adopts a peer's boundary state: validate, restore the
// snapshot (if any), replay the suffix, journal what was adopted, then hand
// the deferred frames to the protocol.
func (rt *Runtime) handleCatchupResp(from proto.NodeID, body []byte) {
	resp, err := proto.UnmarshalCatchupResp(body)
	if err != nil || resp.InPhase2 || !rt.p.Accept(from, resp.CurEpoch) {
		return
	}
	if resp.Pos < rt.Pos {
		return // responder is behind our local replay; keep probing
	}
	// Validate the answer's shape before mutating anything.
	useSnap := len(resp.Snap) > 0
	var blob SnapshotBlob
	if useSnap {
		if blob, err = DecodeSnapshotBlob(resp.Snap); err != nil || blob.Pos != resp.FirstPos {
			return
		}
		if blob.Pos <= rt.Pos {
			return // would rewind our prefix; a suffix-only answer will come
		}
	} else if resp.FirstPos != rt.Pos {
		return // suffix does not extend our prefix
	}
	if resp.Pos != resp.FirstPos+uint64(len(resp.Entries)) {
		return
	}

	if useSnap {
		if err := rt.restore(blob, resp.Snap); err != nil {
			return
		}
		// Persist the adopted snapshot: a crash from here on re-boots from
		// it instead of from our (shorter) pre-crash history.
		rt.persistSnapshot(rt.ds.SnapBlob)
	}
	for _, e := range resp.Entries {
		rt.applyDefinitive(e)
		rt.journal(e)
	}
	rt.Epoch, rt.ds.Epoch = resp.CurEpoch, resp.CurEpoch
	rt.journalEpoch()
	rt.recovered()

	deferred := rt.deferred
	rt.deferred = nil
	rt.p.Resume(deferred)
}
