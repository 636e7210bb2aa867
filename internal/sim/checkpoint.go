package sim

import (
	"fmt"
	"math"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/mem"
	"unisoncache/internal/trace"
)

// SaveState serializes the machine's complete mutable state: the run
// cursor, every core's clocks, counters, remaining budget, buffered
// prefetched events and source cursor, the private L1s, the shared L2, the
// DRAM cache design and both DRAM parts. Restoring it into a machine built
// from the same configuration (LoadState) resumes the run bit-identically.
// Sources that do not implement trace.Stateful fail the Writer.
func (m *Machine) SaveState(w *checkpoint.Writer) {
	w.Section("sim.machine")
	w.U64(uint64(m.run.accesses))
	w.U64(uint64(m.run.warm))
	w.U8(m.run.phase)
	w.U64(m.run.step)
	w.U64(uint64(len(m.cores)))
	for i := range m.cores {
		c := &m.cores[i]
		w.U64(c.clock)
		w.U64(c.instr)
		w.U64(c.latSum)
		w.U64(c.latN)
		w.U64(c.clock0)
		w.U64(c.instr0)
		w.I64(int64(m.remaining[i]))
		// Prefetched-but-unexecuted events: the slab's live window. The
		// restored machine replays them before pulling from the source
		// again, so the source cursor below is saved at the already-pulled
		// position and the refill sequence thereafter is unchanged.
		w.U64(uint64(c.n - c.pos))
		for _, ev := range c.buf[c.pos:c.n] {
			w.U32(ev.Gap)
			w.U64(uint64(ev.Addr))
			w.U64(ev.PC)
			w.Bool(ev.Write)
		}
		st, ok := c.src.(trace.Stateful)
		if !ok {
			w.Fail(fmt.Errorf("sim: core %d source %T does not support checkpointing", i, c.src))
			return
		}
		st.SaveState(w)
		c.l1.SaveState(w)
	}
	m.l2.SaveState(w)
	m.design.SaveState(w)
	m.stacked.SaveState(w)
	m.offchip.SaveState(w)
}

// restoreL1Cursor derives an outcome-driven core's stream cursors from the
// restored run cursor and the core's remaining budget: the core has
// executed its whole warmup less rem events in phase 1, and every event
// but rem in the measurement phase, since it replays one run from the
// start of its stream.
func (c *coreState) restoreL1Cursor(run runState, rem int) error {
	ev, ev0 := 0, 0
	switch {
	case run.phase == 1:
		ev = run.warm - rem
	case run.phase >= 2:
		ev, ev0 = run.accesses-rem, run.warm
	}
	if ev < 0 || ev > c.out.events || ev0 > ev {
		return fmt.Errorf("snapshot places the L1 outcome cursor at event %d (measured from %d) of %d", ev, ev0, c.out.events)
	}
	c.ev, c.ev0 = ev, ev0
	c.vic = countBits(c.out.wb, 0, ev)
	return nil
}

// LoadState restores state saved by SaveState into a machine constructed
// with the same configuration, sources, design and DRAM parts. On error
// the machine may hold a partial restore and must be discarded — callers
// fall back to a freshly built machine.
func (m *Machine) LoadState(r *checkpoint.Reader) error {
	r.Section("sim.machine")
	accesses := r.U64()
	warm := r.U64()
	phase := r.U8()
	step := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if accesses > math.MaxInt || warm > accesses || phase > 2 ||
		step > accesses*uint64(len(m.cores)) {
		return fmt.Errorf("sim: snapshot run cursor (accesses %d, warm %d, phase %d, step %d) is inconsistent", accesses, warm, phase, step)
	}
	m.run = runState{accesses: int(accesses), warm: int(warm), phase: phase, step: step}
	if n := r.U64(); r.Err() == nil && n != uint64(len(m.cores)) {
		return fmt.Errorf("sim: snapshot has %d cores, machine has %d", n, len(m.cores))
	}
	for i := range m.cores {
		c := &m.cores[i]
		c.clock = r.U64()
		c.instr = r.U64()
		c.latSum = r.U64()
		c.latN = r.U64()
		c.clock0 = r.U64()
		c.instr0 = r.U64()
		rem := r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		if rem < 0 || rem > int64(accesses) {
			return fmt.Errorf("sim: snapshot remaining budget %d for core %d is out of range", rem, i)
		}
		m.remaining[i] = int(rem)
		n := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if n > uint64(len(c.buf)) {
			return fmt.Errorf("sim: snapshot buffers %d events for core %d, slab holds %d", n, i, len(c.buf))
		}
		for j := uint64(0); j < n; j++ {
			c.buf[j] = trace.Event{Gap: r.U32()}
			c.buf[j].Addr = mem.Addr(r.U64())
			c.buf[j].PC = r.U64()
			c.buf[j].Write = r.Bool()
		}
		c.pos, c.n = 0, int(n)
		st, ok := c.src.(trace.Stateful)
		if !ok {
			return fmt.Errorf("sim: core %d source %T does not support checkpointing", i, c.src)
		}
		if err := st.LoadState(r); err != nil {
			return err
		}
		if err := c.l1.LoadState(r); err != nil {
			return err
		}
		if c.out != nil {
			if err := c.restoreL1Cursor(m.run, m.remaining[i]); err != nil {
				return fmt.Errorf("sim: core %d: %w", i, err)
			}
		}
	}
	if err := m.l2.LoadState(r); err != nil {
		return err
	}
	if err := m.design.LoadState(r); err != nil {
		return err
	}
	if err := m.stacked.LoadState(r); err != nil {
		return err
	}
	if err := m.offchip.LoadState(r); err != nil {
		return err
	}
	return r.Err()
}
