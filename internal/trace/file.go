package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"unisoncache/internal/mem"
)

// The .utrace binary format, version 1.
//
// A capture freezes the exact per-core event streams of one run so it can
// be replayed later — bit-identical, without the synthetic generator. The
// layout is a versioned header followed by one length-prefixed section per
// core:
//
//	magic   4 bytes  "UTRC"
//	version uvarint  (1)
//	profile uvarint length + bytes (workload name the capture came from)
//	seed    uvarint
//	scale   uvarint  (proportional-scaling divisor the streams were generated with)
//	cores   uvarint
//	events  uvarint  (events per core)
//	cores × { uvarint section length, section bytes }
//
// Each section encodes its core's events in order, three varints per event:
//
//	gap<<1 | write    uvarint — instruction gap with the store bit packed low
//	block delta       zigzag varint vs the previous event's block number
//	PC delta          zigzag varint vs the previous event's PC
//
// Deltas start from zero. Addresses are block-aligned (the generator only
// emits block-granular references), so encoding block numbers is lossless.
// Consecutive events mostly walk adjacent blocks under the same PC, so the
// common event costs three bytes.
const (
	// FileVersion is the current .utrace format version.
	FileVersion = 1
	// FileMaxCores bounds the header's core count against corrupt or
	// hostile inputs.
	FileMaxCores = 4096

	fileMagic      = "UTRC"
	maxProfileName = 1024
)

// FileHeader is the metadata a .utrace capture carries.
type FileHeader struct {
	// Profile is the workload name the capture was generated from. Replay
	// does not need the profile itself — the events are frozen — so a
	// capture outlives its workload registration.
	Profile string
	// Seed is the stream seed of the capture.
	Seed uint64
	// ScaleDivisor is the proportional-scaling divisor the streams were
	// generated with: the frozen events embed the divided working set, so
	// a replay is only meaningful against a run using the same divisor.
	ScaleDivisor int
	// Cores is the number of per-core sections.
	Cores int
	// EventsPerCore is each section's event count.
	EventsPerCore int
}

func (h FileHeader) validate() error {
	if h.Cores <= 0 || h.Cores > FileMaxCores {
		return fmt.Errorf("trace: file header: %d cores outside [1,%d]", h.Cores, FileMaxCores)
	}
	if h.EventsPerCore <= 0 {
		return fmt.Errorf("trace: file header: %d events per core", h.EventsPerCore)
	}
	if h.ScaleDivisor < 1 {
		return fmt.Errorf("trace: file header: scale divisor %d", h.ScaleDivisor)
	}
	if len(h.Profile) > maxProfileName {
		return fmt.Errorf("trace: file header: profile name %d bytes long", len(h.Profile))
	}
	return nil
}

// WriteTrace captures h.EventsPerCore events from each source into w in the
// .utrace format. Sources are drained core-major, so memory stays bounded
// by one encoded section regardless of trace length.
func WriteTrace(w io.Writer, h FileHeader, sources []Source) error {
	if err := h.validate(); err != nil {
		return err
	}
	if len(sources) != h.Cores {
		return fmt.Errorf("trace: %d sources for %d header cores", len(sources), h.Cores)
	}
	var hdr []byte
	hdr = append(hdr, fileMagic...)
	hdr = binary.AppendUvarint(hdr, FileVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(h.Profile)))
	hdr = append(hdr, h.Profile...)
	hdr = binary.AppendUvarint(hdr, h.Seed)
	hdr = binary.AppendUvarint(hdr, uint64(h.ScaleDivisor))
	hdr = binary.AppendUvarint(hdr, uint64(h.Cores))
	hdr = binary.AppendUvarint(hdr, uint64(h.EventsPerCore))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var sec []byte
	for core, src := range sources {
		if src == nil {
			return fmt.Errorf("trace: nil source for core %d", core)
		}
		sec = sec[:0]
		var prevBlock, prevPC uint64
		for i := 0; i < h.EventsPerCore; i++ {
			ev := src.Next()
			g := uint64(ev.Gap) << 1
			if ev.Write {
				g |= 1
			}
			block := ev.Addr.Block()
			sec = binary.AppendUvarint(sec, g)
			sec = binary.AppendUvarint(sec, zigzag(int64(block)-int64(prevBlock)))
			sec = binary.AppendUvarint(sec, zigzag(int64(ev.PC)-int64(prevPC)))
			prevBlock, prevPC = block, ev.PC
		}
		if _, err := w.Write(binary.AppendUvarint(nil, uint64(len(sec)))); err != nil {
			return err
		}
		if _, err := w.Write(sec); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace parses a .utrace capture and returns one ReplaySource per core.
// The whole file is validated up front — every section must decode to
// exactly the header's event count — so the returned sources cannot fail
// mid-replay.
func ReadTrace(r io.Reader) (FileHeader, []*ReplaySource, error) {
	c, err := ReadCapture(r, nil)
	if err != nil {
		return FileHeader{}, nil, err
	}
	return c.header, c.Sources(), nil
}

// Capture is a verified .utrace capture held in memory: its header and
// each core's section, sliced from the bytes it was read from. It never
// changes once built, so concurrent replays can share one Capture, each
// through its own cursors from Sources.
type Capture struct {
	header   FileHeader
	data     []byte
	sections [][]byte
}

// A Visitor sees a capture's events as ReadCapture verifies them, in the
// one pass that decodes them.
type Visitor interface {
	// Begin receives the validated header before any event.
	Begin(h FileHeader)
	// Events receives core's next decoded events. Each core's events
	// arrive in order; different cores' may arrive concurrently. evs is
	// reused once Events returns.
	Events(core int, evs []Event)
}

// ReadCapture reads r to EOF, then parses and verifies the capture as
// ReadTrace does, handing every decoded event to v when it is non-nil. A
// capture that fails verification may already have shown v some of its
// events.
func ReadCapture(r io.Reader, v Visitor) (*Capture, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading capture: %w", err)
	}
	return parseCapture(data, v)
}

// parseCapture parses the header of data and verifies every section,
// showing a non-nil v the events. The Capture keeps data.
func parseCapture(data []byte, v Visitor) (*Capture, error) {
	buf := bytes.NewBuffer(data)
	if len(data) < len(fileMagic) || string(buf.Next(len(fileMagic))) != fileMagic {
		return nil, fmt.Errorf("trace: not a .utrace capture (bad magic)")
	}
	version, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("trace: truncated header")
	}
	if version != FileVersion {
		return nil, fmt.Errorf("trace: unsupported .utrace version %d (have %d)", version, FileVersion)
	}
	var h FileHeader
	nameLen, err := binary.ReadUvarint(buf)
	if err != nil || nameLen > maxProfileName || int(nameLen) > buf.Len() {
		return nil, fmt.Errorf("trace: corrupt header (profile name)")
	}
	h.Profile = string(buf.Next(int(nameLen)))
	if h.Seed, err = binary.ReadUvarint(buf); err != nil {
		return nil, fmt.Errorf("trace: truncated header")
	}
	scale, err0 := binary.ReadUvarint(buf)
	cores, err1 := binary.ReadUvarint(buf)
	events, err2 := binary.ReadUvarint(buf)
	if err0 != nil || err1 != nil || err2 != nil ||
		scale > math.MaxInt32 || cores > math.MaxInt32 || events > math.MaxInt32 {
		return nil, fmt.Errorf("trace: truncated header")
	}
	h.ScaleDivisor, h.Cores, h.EventsPerCore = int(scale), int(cores), int(events)
	if err := h.validate(); err != nil {
		return nil, err
	}
	sections := make([][]byte, h.Cores)
	var truncated error
	for c := range sections {
		secLen, err := binary.ReadUvarint(buf)
		if err != nil || secLen > uint64(buf.Len()) {
			truncated = fmt.Errorf("trace: truncated section for core %d", c)
			sections = sections[:c]
			break
		}
		sections[c] = buf.Next(int(secLen))
	}
	if v != nil {
		v.Begin(h)
	}
	// Sections are checked in core order: a core's verification error
	// outranks a later core's and a truncation found after it.
	if err := verifySections(sections, h.EventsPerCore, v); err != nil {
		return nil, err
	}
	if truncated != nil {
		return nil, truncated
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after last section", buf.Len())
	}
	return &Capture{header: h, data: data, sections: sections}, nil
}

// verifySections verifies every section, each holding events events, on
// up to one goroutine per CPU, and returns the error of the lowest core
// that fails.
func verifySections(sections [][]byte, events int, v Visitor) error {
	errs := make([]error, len(sections))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(sections)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < len(sections); c = int(next.Add(1) - 1) {
				var visit func([]Event)
				if v != nil {
					visit = func(evs []Event) { v.Events(c, evs) }
				}
				rs := ReplaySource{data: sections[c], remaining: events}
				errs[c] = rs.verify(visit)
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("trace: core %d: %w", c, err)
		}
	}
	return nil
}

// Header returns the capture's header.
func (c *Capture) Header() FileHeader { return c.header }

// Sources returns a fresh cursor at the start of every core's section.
func (c *Capture) Sources() []*ReplaySource {
	sources := make([]*ReplaySource, len(c.sections))
	for i, sec := range c.sections {
		sources[i] = &ReplaySource{data: sec, remaining: c.header.EventsPerCore}
	}
	return sources
}

// equalChunk is how many bytes Equal reads at a time: a few reads per
// megabyte of capture, and small beside any capture worth sharing.
const equalChunk = 256 << 10

// Equal reports whether r yields exactly the bytes c was read from,
// comparing them equalChunk bytes at a time so that no second copy of the
// capture is ever held. It stops at the first difference, leaving r
// partly read; a read error returns false with the error.
func (c *Capture) Equal(r io.Reader) (bool, error) {
	chunk := make([]byte, equalChunk)
	rest := c.data
	for {
		n, err := io.ReadFull(r, chunk)
		if !bytes.HasPrefix(rest, chunk[:n]) {
			return false, nil
		}
		rest = rest[n:]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return len(rest) == 0, nil
		default:
			return false, err
		}
	}
}

// readAll reads r to EOF. When r reports a regular file's size — an
// *os.File, as os.ReadFile uses — the buffer is allocated once at that
// size (plus the slack ReadFrom needs to see EOF); otherwise it grows as
// it reads.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt32 {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// ReplaySource replays one core's section of a .utrace capture, decoding
// events lazily from the encoded bytes so the decoded trace never
// materializes in memory. It implements Source; construct it through
// ReadTrace or a Capture, which validate every section first.
type ReplaySource struct {
	data      []byte
	pos       int
	remaining int
	prevBlock uint64
	prevPC    uint64
}

// Remaining returns how many recorded events have not been replayed yet.
func (s *ReplaySource) Remaining() int { return s.remaining }

// Next implements Source. Reading the capture proved the section decodes
// cleanly, so the only possible failure is pulling past the recorded
// length, which panics — bound demand with Remaining.
func (s *ReplaySource) Next() Event {
	var ev [1]Event
	if err := s.decode(ev[:]); err != nil {
		panic("trace: replay: " + err.Error())
	}
	return ev[0]
}

// NextBatch implements Batcher: it decodes up to len(dst) events straight
// into the caller's slab, returning fewer — eventually 0 — once the
// recorded section drains. Unlike Next, draining is not an error: batching
// callers observe the short count instead of a panic.
func (s *ReplaySource) NextBatch(dst []Event) int {
	dst = dst[:min(len(dst), s.remaining)]
	if err := s.decode(dst); err != nil {
		// Reading the capture verified the section; only corruption
		// of the backing array after construction could land here.
		panic("trace: replay: " + err.Error())
	}
	return len(dst)
}

// decode is the one section decoder — replay, verification and checkpoint
// restore all run it. It decodes exactly len(dst) events into dst, keeping
// the cursor in locals for the whole batch and writing it back once; on
// error the cursor is left where it was. An event whose three varints are
// single bytes — the common event — decodes inline; any other falls back
// to binary.Uvarint field by field. Either way the checks run in the same
// order: a truncated or overlong varint, the gap's uint32 bound (before
// the block delta is read), then a negative block number.
func (s *ReplaySource) decode(dst []Event) error {
	if len(dst) > s.remaining {
		return fmt.Errorf("source drained past its recorded length")
	}
	data, pos, prevBlock, prevPC := s.data, s.pos, s.prevBlock, s.prevPC
	for i := range dst {
		var g uint64
		var blockDelta, pcDelta int64
		if b := data[pos:]; len(b) >= 3 && b[0]|b[1]|b[2] < 0x80 {
			g, blockDelta, pcDelta = uint64(b[0]), unzigzag(uint64(b[1])), unzigzag(uint64(b[2]))
			pos += 3
		} else {
			var n int
			if g, n = binary.Uvarint(data[pos:]); n <= 0 {
				return fmt.Errorf("truncated event at byte %d", pos)
			}
			pos += n
			if g>>1 > math.MaxUint32 {
				return fmt.Errorf("instruction gap overflows uint32")
			}
			u, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return fmt.Errorf("truncated event at byte %d", pos)
			}
			pos += n
			blockDelta = unzigzag(u)
			if u, n = binary.Uvarint(data[pos:]); n <= 0 {
				return fmt.Errorf("truncated event at byte %d", pos)
			}
			pos += n
			pcDelta = unzigzag(u)
		}
		block := int64(prevBlock) + blockDelta
		if block < 0 {
			return fmt.Errorf("negative block number")
		}
		prevBlock = uint64(block)
		prevPC = uint64(int64(prevPC) + pcDelta)
		dst[i] = Event{
			Gap:   uint32(g >> 1),
			Addr:  mem.BlockAddr(prevBlock),
			PC:    prevPC,
			Write: g&1 != 0,
		}
	}
	s.pos, s.prevBlock, s.prevPC = pos, prevBlock, prevPC
	s.remaining -= len(dst)
	return nil
}

// verify decodes the whole section on a scratch copy: exactly `remaining`
// events consuming exactly the section's bytes. A non-nil visit receives
// each decoded batch in order.
func (s *ReplaySource) verify(visit func([]Event)) error {
	t := *s
	var slab [256]Event
	for t.remaining > 0 {
		batch := slab[:min(len(slab), t.remaining)]
		if err := t.decode(batch); err != nil {
			return err
		}
		if visit != nil {
			visit(batch)
		}
	}
	if t.pos != len(t.data) {
		return fmt.Errorf("%d trailing bytes in section", len(t.data)-t.pos)
	}
	return nil
}

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
