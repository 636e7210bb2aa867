package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"unisoncache/internal/mem"
)

// validCapture builds a small well-formed .utrace capture to seed the
// fuzzer with structure-aware inputs.
func validCapture(tb testing.TB, cores, events int) []byte {
	tb.Helper()
	prof := *Profiles()["web-serving"]
	prof.WorkingSetBytes /= 1024
	sources := make([]Source, cores)
	for i := range sources {
		s, err := NewStream(&prof, 3, i)
		if err != nil {
			tb.Fatal(err)
		}
		sources[i] = s
	}
	var buf bytes.Buffer
	err := WriteTrace(&buf, FileHeader{
		Profile: "web-serving", Seed: 3, ScaleDivisor: 1024,
		Cores: cores, EventsPerCore: events,
	}, sources)
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace feeds arbitrary bytes to the .utrace parser. Whatever the
// input — truncated, bit-flipped, or hostile header fields — ReadTrace
// must either succeed on a self-consistent capture or return an error; it
// must never panic, and it must never trust unvalidated header counts
// (the FileMaxCores bound is what keeps a 4-byte header from demanding a
// multi-gigabyte source slice). On an accepted capture the reference
// decoder must accept every parsed section too, and every core must
// replay exactly the reference's events when pulled in ragged NextBatch
// sizes.
func FuzzReadTrace(f *testing.F) {
	valid := validCapture(f, 2, 50)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // truncated mid-section
	f.Add(valid[:5])                      // truncated header
	f.Add([]byte("UTRC"))                 // magic only
	f.Add([]byte("XXXX junk"))            // wrong magic
	f.Add(append([]byte{}, valid[4:]...)) // missing magic
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, sources, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Cores != len(sources) {
			t.Fatalf("header says %d cores, got %d sources", h.Cores, len(sources))
		}
		slab := make([]Event, 255)
		for c, src := range sources {
			if src.Remaining() != h.EventsPerCore {
				t.Fatalf("core %d: %d events remaining, header says %d", c, src.Remaining(), h.EventsPerCore)
			}
			ref := &refSource{data: src.data, remaining: src.Remaining()}
			if err := ref.verify(); err != nil {
				t.Fatalf("core %d: ReadTrace accepted a section the reference decoder rejects: %v", c, err)
			}
			total := 0
			for i := 0; ; i++ {
				n := src.NextBatch(slab[:raggedBatches[i%len(raggedBatches)]])
				for j, ev := range slab[:n] {
					if want, err := ref.next(); err != nil || ev != want {
						t.Fatalf("core %d event %d: replayed %+v, reference %+v (%v)", c, total+j, ev, want, err)
					}
				}
				total += n
				if n == 0 {
					break
				}
			}
			if total != h.EventsPerCore {
				t.Fatalf("core %d: replayed %d events, header says %d", c, total, h.EventsPerCore)
			}
		}
	})
}

// raggedBatches are the batch sizes the fuzz targets cycle through, so
// batch boundaries fall at every phase of a section.
var raggedBatches = []int{1, 3, 64, 2, 255, 7}

// FuzzReplaySection holds the batch decoder to refSource, the per-field
// decoder (one binary.Uvarint call per field) it replaced, on arbitrary
// section bytes and event counts. verify must accept or reject exactly as
// the reference does, with the same error text, and decoding in ragged
// batches must yield the reference's events up to the same first error —
// a pull past the recorded length included.
func FuzzReplaySection(f *testing.F) {
	// Seeds for the decoder's slow path and each of its checks. An event
	// is gap<<1|write, then the zigzag block and PC deltas.
	//
	// A 2-byte gap varint (gap 64).
	f.Add(uint16(2), []byte{0x80, 0x01, 0x02, 0x02, 0x01, 0x02, 0x00})
	// A 2-byte block delta (+128), then a 2-byte PC delta (+200).
	f.Add(uint16(2), []byte{0x00, 0x80, 0x02, 0x00, 0x00, 0x02, 0x90, 0x03})
	// An 11-byte varint, overflowing 64 bits.
	f.Add(uint16(1), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00, 0x00})
	// A gap of 2^32 with no block delta after it: the gap check comes first.
	f.Add(uint16(1), []byte{0x80, 0x80, 0x80, 0x80, 0x20})
	// A single-byte block delta of -1 on the first event.
	f.Add(uint16(1), []byte{0x00, 0x01, 0x00})
	// Sections 1 and 2 bytes short.
	f.Add(uint16(2), []byte{0x00, 0x02, 0x02, 0x00, 0x02})
	f.Add(uint16(2), []byte{0x00, 0x02, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, events uint16, sec []byte) {
		src := &ReplaySource{data: sec, remaining: int(events)}
		ref := &refSource{data: sec, remaining: int(events)}
		if err, rerr := src.verify(nil), ref.verify(); !sameError(err, rerr) {
			t.Fatalf("verify error %v, reference error %v", err, rerr)
		}
		var slab [255]Event
		for i, decoded := 0, 0; ; i++ {
			// Once drained, pull one more event: both must refuse it.
			k := max(1, min(raggedBatches[i%len(raggedBatches)], src.Remaining()))
			err := src.decode(slab[:k])
			var rerr error
			for j := 0; j < k && rerr == nil; j++ {
				var want Event
				if want, rerr = ref.next(); rerr == nil && err == nil && slab[j] != want {
					t.Fatalf("event %d: decoded %+v, reference %+v", decoded+j, slab[j], want)
				}
			}
			if !sameError(err, rerr) {
				t.Fatalf("batch of %d after event %d: decode error %v, reference error %v", k, decoded, err, rerr)
			}
			if err != nil {
				break
			}
			decoded += k
		}
	})
}

// sameError reports whether two decoders agreed: both accepted, or both
// rejected with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// refSource is the reference section cursor: the per-field decoder that
// ReplaySource.decode replaced, kept to hold the batch decoder to the same
// events, checks and error text.
type refSource struct {
	data      []byte
	pos       int
	remaining int
	prevBlock uint64
	prevPC    uint64
}

// next decodes one event, reporting truncation or corruption.
func (s *refSource) next() (Event, error) {
	if s.remaining <= 0 {
		return Event{}, fmt.Errorf("source drained past its recorded length")
	}
	g, err := s.uvarint()
	if err != nil {
		return Event{}, err
	}
	if g>>1 > math.MaxUint32 {
		return Event{}, fmt.Errorf("instruction gap overflows uint32")
	}
	blockDelta, err := s.varint()
	if err != nil {
		return Event{}, err
	}
	pcDelta, err := s.varint()
	if err != nil {
		return Event{}, err
	}
	block := int64(s.prevBlock) + blockDelta
	if block < 0 {
		return Event{}, fmt.Errorf("negative block number")
	}
	s.prevBlock = uint64(block)
	s.prevPC = uint64(int64(s.prevPC) + pcDelta)
	s.remaining--
	return Event{
		Gap:   uint32(g >> 1),
		Addr:  mem.BlockAddr(s.prevBlock),
		PC:    s.prevPC,
		Write: g&1 != 0,
	}, nil
}

// verify decodes the whole section on a scratch copy: exactly `remaining`
// events consuming exactly the section's bytes.
func (s *refSource) verify() error {
	t := *s
	for t.remaining > 0 {
		if _, err := t.next(); err != nil {
			return err
		}
	}
	if t.pos != len(t.data) {
		return fmt.Errorf("%d trailing bytes in section", len(t.data)-t.pos)
	}
	return nil
}

func (s *refSource) uvarint() (uint64, error) {
	v, n := binary.Uvarint(s.data[s.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated event at byte %d", s.pos)
	}
	s.pos += n
	return v, nil
}

func (s *refSource) varint() (int64, error) {
	u, err := s.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// FuzzStreamNextBatch cross-checks batch pulls of arbitrary sizes against
// event-by-event pulls of the generator.
func FuzzStreamNextBatch(f *testing.F) {
	f.Add(uint64(1), 7)
	f.Add(uint64(99), 256)
	f.Fuzz(func(t *testing.T, seed uint64, batch int) {
		if batch <= 0 || batch > 4096 {
			return
		}
		prof := Profiles()["data-analytics"]
		a, err := NewStream(prof, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewStream(prof, seed, 0)
		buf := make([]Event, batch)
		for pulled := 0; pulled < 2000; pulled += batch {
			if n := a.NextBatch(buf); n != batch {
				t.Fatalf("NextBatch(%d) = %d on an unbounded stream", batch, n)
			}
			for i, ev := range buf {
				if want := b.Next(); ev != want {
					t.Fatalf("event %d: batch %+v != next %+v", pulled+i, ev, want)
				}
			}
		}
	})
}
