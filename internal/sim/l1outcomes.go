package sim

import (
	"fmt"
	"math/bits"

	"unisoncache/internal/cache"
	"unisoncache/internal/trace"
)

// L1Outcomes holds a recorded capture's private-L1 outcome streams: for
// every core, which of its events hit its L1, which missed and evicted a
// dirty block, and those victims' block numbers in order. A core's L1 sees
// only its own events — it is write-allocate, and the non-inclusive L2
// never back-invalidates it — so these outcomes are fixed by the capture
// and are the same under every design and every mode. A machine that
// replays them (UseL1Outcomes) skips its L1 lookups and stays
// bit-identical to one that simulates them. L1Outcomes never changes once
// built, so any number of machines, concurrent ones included, share one.
type L1Outcomes struct {
	cfg   cache.Config
	cores []l1Stream
}

// l1Stream is one core's outcome stream. Bit k of hit is set when the
// core's event k hit its L1; bit k of wb when it missed and evicted a
// dirty block, whose block number is the next entry of victims.
type l1Stream struct {
	hit, wb []uint64
	victims []uint64
	events  int
}

// SizeBytes reports the memory the outcome streams hold.
func (o *L1Outcomes) SizeBytes() int {
	n := 0
	for _, s := range o.cores {
		n += 8 * (len(s.hit) + len(s.wb) + len(s.victims))
	}
	return n
}

// L1OutcomeBuilder builds L1Outcomes from a capture's events as
// verification decodes them: it is the trace.Visitor of trace.ReadCapture.
// Each core's events run through a fresh L1 of the builder's
// configuration, with the same Access call the machine makes.
type L1OutcomeBuilder struct {
	out L1Outcomes
	l1  []*cache.Cache // per core, created with its first events
}

// NewL1OutcomeBuilder returns a builder for L1s of configuration cfg.
func NewL1OutcomeBuilder(cfg cache.Config) (*L1OutcomeBuilder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &L1OutcomeBuilder{out: L1Outcomes{cfg: cfg}}, nil
}

// Begin implements trace.Visitor: one stream per core of the capture.
func (b *L1OutcomeBuilder) Begin(h trace.FileHeader) {
	b.out.cores = make([]l1Stream, h.Cores)
	b.l1 = make([]*cache.Cache, h.Cores)
}

// Events implements trace.Visitor: it runs core's next events through the
// core's L1 and records the outcomes. The streams grow with the events
// seen rather than with the header's claim, so a corrupt capture costs no
// more memory than it has events.
func (b *L1OutcomeBuilder) Events(core int, evs []trace.Event) {
	l1 := b.l1[core]
	if l1 == nil {
		l1, _ = cache.New(b.out.cfg) // validated by NewL1OutcomeBuilder
		b.l1[core] = l1
	}
	s := &b.out.cores[core]
	for _, ev := range evs {
		k := s.events
		if k&63 == 0 {
			s.hit = append(s.hit, 0)
			s.wb = append(s.wb, 0)
		}
		r := l1.Access(ev.Addr.Block(), ev.Write)
		var hit, wb uint64
		if r.Hit {
			hit = 1
		}
		if r.Writeback {
			wb = 1
			s.victims = append(s.victims, r.WritebackBlock)
		}
		s.hit[k>>6] |= hit << (k & 63)
		s.wb[k>>6] |= wb << (k & 63)
		s.events++
	}
}

// Outcomes returns the streams built. The builder must not be used
// afterwards.
func (b *L1OutcomeBuilder) Outcomes() *L1Outcomes {
	b.l1 = nil
	return &b.out
}

// UseL1Outcomes makes the machine take every core's L1 outcome from o
// instead of looking it up in the core's L1, which then stays untouched —
// as it is in every snapshot the machine saves. Call it before the first
// run; the machine must then replay the sources o was built from, one run
// from their start. It rejects outcomes built for another L1
// configuration or core count, or holding fewer than events events for
// some core.
func (m *Machine) UseL1Outcomes(o *L1Outcomes, events int) error {
	if o.cfg != m.cfg.L1 {
		return fmt.Errorf("sim: L1 outcomes were built for L1 %+v, machine has %+v", o.cfg, m.cfg.L1)
	}
	if len(o.cores) != len(m.cores) {
		return fmt.Errorf("sim: L1 outcomes hold %d cores, machine has %d", len(o.cores), len(m.cores))
	}
	for i := range o.cores {
		if n := o.cores[i].events; n < events {
			return fmt.Errorf("sim: L1 outcomes hold %d events for core %d, run needs %d", n, i, events)
		}
	}
	for i := range m.cores {
		m.cores[i].out = &o.cores[i]
	}
	return nil
}

// countBits returns how many of bits lo..hi-1 of bm are set.
func countBits(bm []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	n := 0
	for _, w := range bm[first : last+1] {
		n += bits.OnesCount64(w)
	}
	n -= bits.OnesCount64(bm[first] & (1<<(lo&63) - 1))
	if end := hi & 63; end != 0 {
		n -= bits.OnesCount64(bm[last] &^ (1<<end - 1))
	}
	return n
}
