package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

func captureStreams(t *testing.T, workload string, seed uint64, cores int) []Source {
	t.Helper()
	sources := make([]Source, cores)
	for i := range sources {
		s, err := NewStream(Profiles()[workload], seed, i)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = s
	}
	return sources
}

func TestTraceFileRoundTrip(t *testing.T) {
	const cores, events = 3, 2000
	h := FileHeader{Profile: "web-serving", Seed: 11, ScaleDivisor: 16, Cores: cores, EventsPerCore: events}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h, captureStreams(t, "web-serving", 11, cores)); err != nil {
		t.Fatal(err)
	}

	got, sources, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
	// Replay must reproduce the live streams event for event.
	live := captureStreams(t, "web-serving", 11, cores)
	for c := 0; c < cores; c++ {
		if sources[c].Remaining() != events {
			t.Fatalf("core %d: Remaining() = %d, want %d", c, sources[c].Remaining(), events)
		}
		for i := 0; i < events; i++ {
			want := live[c].Next()
			if ev := sources[c].Next(); ev != want {
				t.Fatalf("core %d event %d: replay %+v, live %+v", c, i, ev, want)
			}
		}
		if sources[c].Remaining() != 0 {
			t.Errorf("core %d: %d events left after full replay", c, sources[c].Remaining())
		}
	}
}

func TestTraceFileDrainPanics(t *testing.T) {
	var buf bytes.Buffer
	h := FileHeader{Profile: "web-search", Seed: 1, ScaleDivisor: 1, Cores: 1, EventsPerCore: 5}
	if err := WriteTrace(&buf, h, captureStreams(t, "web-search", 1, 1)); err != nil {
		t.Fatal(err)
	}
	_, sources, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sources[0].Next()
	}
	defer func() {
		if recover() == nil {
			t.Error("draining past the recorded length did not panic")
		}
	}()
	sources[0].Next()
}

func TestWriteTraceRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	src := captureStreams(t, "web-search", 1, 1)
	cases := []struct {
		name    string
		h       FileHeader
		sources []Source
	}{
		{"zero cores", FileHeader{ScaleDivisor: 1, Cores: 0, EventsPerCore: 1}, nil},
		{"zero events", FileHeader{ScaleDivisor: 1, Cores: 1, EventsPerCore: 0}, src},
		{"zero scale divisor", FileHeader{ScaleDivisor: 0, Cores: 1, EventsPerCore: 1}, src},
		{"source mismatch", FileHeader{ScaleDivisor: 1, Cores: 2, EventsPerCore: 1}, src},
		{"nil source", FileHeader{ScaleDivisor: 1, Cores: 1, EventsPerCore: 1}, []Source{nil}},
	}
	for _, c := range cases {
		if err := WriteTrace(&buf, c.h, c.sources); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	h := FileHeader{Profile: "tpch", Seed: 3, ScaleDivisor: 32, Cores: 2, EventsPerCore: 300}
	if err := WriteTrace(&buf, h, captureStreams(t, "tpch", 3, 2)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, _, err := ReadTrace(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	trailing := append(append([]byte{}, good...), 0xff)
	if _, _, err := ReadTrace(bytes.NewReader(trailing)); err == nil {
		t.Error("trailing bytes accepted")
	}
	wrongVersion := append([]byte{}, good...)
	wrongVersion[4] = 99 // the version uvarint directly follows the magic
	if _, _, err := ReadTrace(bytes.NewReader(wrongVersion)); err == nil {
		t.Error("unsupported version accepted")
	}
}

// TestReadTraceReportsLowestBadCore: sections verify concurrently, yet a
// capture with several faults fails with the error a pass in core order
// meets first — a core's decode error before a later core's, and before a
// truncated section after it.
func TestReadTraceReportsLowestBadCore(t *testing.T) {
	const events = 1000
	good := bytes.Repeat([]byte{2, 0, 0}, events) // gap 1, no deltas
	trailing := append(append([]byte(nil), good...), 0)
	short := good[:len(good)-1]
	raw := func(cores int, sections ...[]byte) []byte {
		b := append([]byte(fileMagic), FileVersion, 1, 'x', 1, 1, byte(cores))
		b = binary.AppendUvarint(b, events)
		for _, sec := range sections {
			b = binary.AppendUvarint(b, uint64(len(sec)))
			b = append(b, sec...)
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"later cores bad", raw(3, good, trailing, short), "trace: core 1: 1 trailing bytes in section"},
		{"first core bad", raw(3, short, good, trailing), "trace: core 0: truncated event at byte 2999"},
		{"bad core before a truncated section", raw(3, trailing, good), "trace: core 0: 1 trailing bytes in section"},
		{"truncated section", raw(3, good, good), "trace: truncated section for core 2"},
	}
	for _, tc := range cases {
		if _, _, err := ReadTrace(bytes.NewReader(tc.data)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: ReadTrace = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := ReadTrace(bytes.NewReader(raw(3, good, good, good))); err != nil {
		t.Fatalf("the well-formed capture failed: %v", err)
	}
}

// TestCaptureEqual holds Capture.Equal to bytes.Equal on readers that end,
// differ or fail at and around its chunk boundaries.
func TestCaptureEqual(t *testing.T) {
	data := validCapture(t, 2, 100_000)
	if len(data) <= 2*equalChunk {
		t.Fatalf("capture is %d bytes; the test needs more than two %d-byte chunks", len(data), equalChunk)
	}
	c, err := ReadCapture(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), data...)
		b[i] ^= 1
		return b
	}
	boom := errors.New("boom")
	cases := []struct {
		name string
		r    io.Reader
		want bool
		err  error
	}{
		{"same bytes", bytes.NewReader(data), true, nil},
		{"same bytes, short reads", iotest.HalfReader(bytes.NewReader(data)), true, nil},
		{"first byte of the second chunk", bytes.NewReader(flip(equalChunk)), false, nil},
		{"last byte", bytes.NewReader(flip(len(data) - 1)), false, nil},
		{"one byte short", bytes.NewReader(data[:len(data)-1]), false, nil},
		{"one byte more", bytes.NewReader(append(append([]byte(nil), data...), 0)), false, nil},
		{"ends at a chunk boundary", bytes.NewReader(data[:equalChunk]), false, nil},
		{"empty", bytes.NewReader(nil), false, nil},
		{"read error", io.MultiReader(bytes.NewReader(data[:equalChunk+10]), iotest.ErrReader(boom)), false, boom},
	}
	for _, tc := range cases {
		got, err := c.Equal(tc.r)
		if got != tc.want || !errors.Is(err, tc.err) {
			t.Errorf("%s: Equal = %v, %v; want %v, %v", tc.name, got, err, tc.want, tc.err)
		}
	}
	// A capture whose length is a whole number of chunks ends on a
	// zero-byte read.
	whole := &Capture{data: data[:2*equalChunk]}
	if got, err := whole.Equal(bytes.NewReader(data[:2*equalChunk])); !got || err != nil {
		t.Errorf("whole-chunk capture: Equal = %v, %v; want true, nil", got, err)
	}
}

// benchCapture writes a fixed 16-core × 20k-event web-serving capture —
// the profile and 1 GB scale divisor observed-replay replays — to a temp
// file, the way Execute reads captures, and returns its path and event
// count.
func benchCapture(b *testing.B) (string, int) {
	b.Helper()
	const cores, events, divisor = 16, 20_000, 32
	prof := *Profiles()["web-serving"]
	prof.WorkingSetBytes /= divisor
	sources := make([]Source, cores)
	for i := range sources {
		s, err := NewStream(&prof, 1, i)
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = s
	}
	var buf bytes.Buffer
	h := FileHeader{Profile: "web-serving", Seed: 1, ScaleDivisor: divisor, Cores: cores, EventsPerCore: events}
	if err := WriteTrace(&buf, h, sources); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.utrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path, cores * events
}

// BenchmarkReadTrace times ReadTrace of a capture file: the read plus the
// up-front verification of every section.
func BenchmarkReadTrace(b *testing.B) {
	path, events := benchCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadTrace(f); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkReplaySourceNextBatch times the replay hot path: every core of
// a verified capture drained through the simulator's 256-event slab.
func BenchmarkReplaySourceNextBatch(b *testing.B) {
	path, events := benchCapture(b)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	_, sources, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	slab := make([]Event, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			s := *src // a fresh cursor over the same section
			for s.NextBatch(slab) == len(slab) {
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}
