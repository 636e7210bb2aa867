package trace

import (
	"bytes"
	"strings"
	"testing"

	"unisoncache/internal/checkpoint"
)

// replayCursor encodes a trace.replay section holding an arbitrary cursor
// (block and PC deltas starting from zero), as a snapshot from another
// capture or a corrupt store entry might.
func replayCursor(pos, remaining int) []byte {
	w := checkpoint.NewWriter()
	w.Section("trace.replay")
	w.U64(uint64(pos))
	w.U64(uint64(remaining))
	w.U64(0) // prevBlock
	w.U64(0) // prevPC
	return w.Bytes()
}

// TestReplaySourceLoadState covers the checkpoint trust boundary of a
// capture replay: a saved mid-section cursor restores into a fresh source
// and replays the original's suffix, and a cursor that is out of range, or
// in range but not decoding to exactly the rest of the section, is
// rejected without moving the source.
func TestReplaySourceLoadState(t *testing.T) {
	t.Run("mid-section cursor replays the suffix", func(t *testing.T) {
		const events, cut = 400, 150
		data := validCapture(t, 1, events)
		_, orig, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			orig[0].Next()
		}
		w := checkpoint.NewWriter()
		orig[0].SaveState(w)
		_, fresh, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		r := checkpoint.NewReader(w.Bytes())
		if err := fresh[0].LoadState(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		for i := cut; i < events; i++ {
			if got, want := fresh[0].Next(), orig[0].Next(); got != want {
				t.Fatalf("event %d: restored %+v, original %+v", i, got, want)
			}
		}
		if fresh[0].Remaining() != 0 {
			t.Errorf("%d events left after the suffix", fresh[0].Remaining())
		}
	})

	// The rejections run on a hand-made section whose layout is known:
	// event 0 is gap 0, a 2-byte block delta of +128 at bytes 1–2 and PC
	// delta 0; every later event is three single bytes.
	const events = 50
	section := []byte{0x00, 0x80, 0x02, 0x00}
	for i := 1; i < events; i++ {
		section = append(section, 0x00, 0x02, 0x00)
	}
	if err := (&ReplaySource{data: section, remaining: events}).verify(nil); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name           string
		pos, remaining int
		err            string
	}{
		{"pos past the section", len(section) + 1, 0, "out of range"},
		{"remaining past the section", 0, len(section) + 1, "out of range"},
		// From byte 2 the events regroup into whole single-byte events
		// until the last one runs out of bytes.
		{"pos inside a varint", 2, events, "truncated event"},
		{"remaining one short", 0, events - 1, "trailing bytes"},
		{"remaining one long", 0, events + 1, "truncated event"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			fresh := &ReplaySource{data: section, remaining: events}
			err := fresh.LoadState(checkpoint.NewReader(replayCursor(c.pos, c.remaining)))
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("LoadState = %v, want an error containing %q", err, c.err)
			}
			if fresh.pos != 0 || fresh.remaining != events {
				t.Errorf("a rejected cursor moved the source to (pos %d, remaining %d)", fresh.pos, fresh.remaining)
			}
		})
	}
}
