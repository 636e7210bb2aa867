package trace

import (
	"fmt"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/mem"
)

// Stateful is implemented by sources whose replay cursor can be frozen
// into a checkpoint and restored into a freshly constructed source of the
// same configuration. The contract is bit-identity: after LoadState, the
// source must emit exactly the events the original would have emitted from
// the save point on. Both built-in sources implement it; a custom Source
// must too before it can be used with segmented or checkpointed replay.
type Stateful interface {
	SaveState(w *checkpoint.Writer)
	LoadState(r *checkpoint.Reader) error
}

// maxPendingRestore bounds the pending-visit buffer a snapshot may carry;
// real visits are bounded by pendingCap and only exceed it pathologically.
const maxPendingRestore = 1 << 20

// SaveState serializes the stream's cursor: the RNG state and the
// unconsumed remainder of the current visit. Profile-derived structures
// (Zipf tables, the region permutation) are pure functions of the
// configuration and are not serialized — LoadState restores into a stream
// built from the same profile and seed.
func (s *Stream) SaveState(w *checkpoint.Writer) {
	w.Section("trace.stream")
	w.U64(s.rng.state)
	rest := s.pending[s.next:]
	w.U64(uint64(len(rest)))
	for _, ev := range rest {
		w.U32(ev.Gap)
		w.U64(uint64(ev.Addr))
		w.U64(ev.PC)
		w.Bool(ev.Write)
	}
}

// LoadState restores a cursor saved by SaveState. The next visit
// generation resets the pending buffer, so restoring the unconsumed suffix
// at position zero reproduces the original event sequence exactly.
func (s *Stream) LoadState(r *checkpoint.Reader) error {
	r.Section("trace.stream")
	state := r.U64()
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n > maxPendingRestore || int(n)*21 > r.Remaining() {
		return fmt.Errorf("trace: snapshot pending-visit length %d is corrupt", n)
	}
	s.rng.state = state
	s.pending = s.pending[:0]
	for i := uint64(0); i < n; i++ {
		ev := Event{Gap: r.U32()}
		addr := r.U64()
		ev.Addr = mem.Addr(addr)
		ev.PC = r.U64()
		ev.Write = r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if addr%mem.BlockSize != 0 {
			return fmt.Errorf("trace: snapshot pending event %d has unaligned address", i)
		}
		s.pending = append(s.pending, ev)
	}
	s.next = 0
	return r.Err()
}

// SaveState serializes the replay cursor over the immutable section bytes.
func (s *ReplaySource) SaveState(w *checkpoint.Writer) {
	w.Section("trace.replay")
	w.U64(uint64(s.pos))
	w.U64(uint64(s.remaining))
	w.U64(s.prevBlock)
	w.U64(s.prevPC)
}

// LoadState restores a cursor saved by SaveState into a source replaying
// the same capture. The restored cursor is re-verified — the remaining
// events must decode cleanly and consume the section exactly — so a
// snapshot from a different capture cannot silently replay garbage.
func (s *ReplaySource) LoadState(r *checkpoint.Reader) error {
	r.Section("trace.replay")
	pos := r.U64()
	remaining := r.U64()
	prevBlock := r.U64()
	prevPC := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if pos > uint64(len(s.data)) || remaining > uint64(len(s.data)-int(pos)) {
		return fmt.Errorf("trace: snapshot replay cursor (pos %d, remaining %d) out of range for %d-byte section", pos, remaining, len(s.data))
	}
	restored := ReplaySource{
		data:      s.data,
		pos:       int(pos),
		remaining: int(remaining),
		prevBlock: prevBlock,
		prevPC:    prevPC,
	}
	if err := restored.verify(nil); err != nil {
		return fmt.Errorf("trace: snapshot replay cursor does not decode: %w", err)
	}
	*s = restored
	return nil
}

// SaveState forwards to the wrapped Source when it is checkpointable.
func (s sourceBatcher) SaveState(w *checkpoint.Writer) {
	st, ok := s.Source.(Stateful)
	if !ok {
		w.Fail(fmt.Errorf("trace: source %T does not support checkpointing", s.Source))
		return
	}
	st.SaveState(w)
}

// LoadState forwards to the wrapped Source when it is checkpointable.
func (s sourceBatcher) LoadState(r *checkpoint.Reader) error {
	st, ok := s.Source.(Stateful)
	if !ok {
		return fmt.Errorf("trace: source %T does not support checkpointing", s.Source)
	}
	return st.LoadState(r)
}

var (
	_ Stateful = (*Stream)(nil)
	_ Stateful = (*ReplaySource)(nil)
	_ Stateful = sourceBatcher{}
)
