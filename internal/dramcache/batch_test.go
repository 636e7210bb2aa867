package dramcache

import (
	"bytes"
	"math/rand"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/mem"
	"unisoncache/internal/stats"
)

// batchEquivalence drives two copies of the same design through one
// request stream — Access per request on one, AccessBatch in random-size
// batches on the other — and requires bit-identical responses, statistics
// and checkpoint bytes. This is the contract AccessBatch documents: Access
// applied once per request in slice order.
func batchEquivalence(t *testing.T, build func(t *testing.T) Design) {
	t.Helper()
	serial := build(t)
	batched := build(t)

	rng := rand.New(rand.NewSource(42))
	const total = 20000
	reqs := make([]Request, 0, 64)
	resps := make([]Response, 64)
	at := uint64(0)
	done := 0
	for done < total {
		n := 1 + rng.Intn(17)
		if done+n > total {
			n = total - done
		}
		reqs = reqs[:0]
		for i := 0; i < n; i++ {
			at += uint64(rng.Intn(200))
			reqs = append(reqs, Request{
				// A few thousand blocks: enough reuse to exercise hits,
				// evictions and predictor training.
				Addr:  mem.BlockAddr(uint64(rng.Intn(4096))),
				PC:    uint64(rng.Intn(512)) * 4,
				Core:  rng.Intn(4),
				Write: rng.Intn(4) == 0,
				At:    at,
			})
		}
		for i, r := range reqs {
			resps[i] = serial.Access(r)
		}
		got := make([]Response, n)
		batched.AccessBatch(reqs, got)
		for i := range reqs {
			if got[i] != resps[i] {
				t.Fatalf("%s: request %d of batch at %d: batched %+v != serial %+v",
					serial.Name(), i, done, got[i], resps[i])
			}
		}
		done += n
		if done == total/2 {
			// Exercise the warmup/measurement boundary mid-stream.
			serial.ResetStats()
			batched.ResetStats()
		}
	}

	if s, b := serial.Snapshot(), batched.Snapshot(); !snapshotsEqual(s, b) {
		t.Errorf("%s: snapshots diverge:\nserial  %+v\nbatched %+v", serial.Name(), s, b)
	}
	ws, wb := checkpoint.NewWriter(), checkpoint.NewWriter()
	serial.SaveState(ws)
	batched.SaveState(wb)
	if ws.Err() != nil || wb.Err() != nil {
		t.Fatalf("save: %v / %v", ws.Err(), wb.Err())
	}
	if !bytes.Equal(ws.Bytes(), wb.Bytes()) {
		t.Errorf("%s: checkpoint bytes diverge after batched run", serial.Name())
	}
}

// snapshotsEqual compares two snapshots by value, dereferencing the ratio
// pointers (plain struct equality would compare their addresses).
func snapshotsEqual(a, b Snapshot) bool {
	ratioEq := func(x, y *stats.Ratio) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || *x == *y
	}
	if !ratioEq(a.FP, b.FP) || !ratioEq(a.FO, b.FO) || !ratioEq(a.WP, b.WP) || !ratioEq(a.MP, b.MP) {
		return false
	}
	a.FP, a.FO, a.WP, a.MP = nil, nil, nil, nil
	b.FP, b.FO, b.WP, b.MP = nil, nil, nil, nil
	return a == b
}

func TestAccessBatchMatchesSerialAlloy(t *testing.T) {
	batchEquivalence(t, func(t *testing.T) Design {
		s, o := parts(t)
		a, err := NewAlloy(1<<20, 4, s, o)
		if err != nil {
			t.Fatal(err)
		}
		return a
	})
}

func TestAccessBatchMatchesSerialFootprint(t *testing.T) {
	batchEquivalence(t, func(t *testing.T) Design {
		s, o := parts(t)
		f, err := NewFootprint(FCConfig{CapacityBytes: 1 << 20, TagLatency: 12}, s, o)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
}

func TestAccessBatchMatchesSerialIdeal(t *testing.T) {
	batchEquivalence(t, func(t *testing.T) Design {
		s, _ := parts(t)
		return NewIdeal(s)
	})
}

func TestAccessBatchMatchesSerialNone(t *testing.T) {
	batchEquivalence(t, func(t *testing.T) Design {
		_, o := parts(t)
		return NewNone(o)
	})
}

func TestAccessBatchMatchesSerialLohHill(t *testing.T) {
	batchEquivalence(t, func(t *testing.T) Design {
		s, o := parts(t)
		l, err := NewLohHill(1<<20, s, o)
		if err != nil {
			t.Fatal(err)
		}
		return l
	})
}

// TestAccessBatchSizeOne pins the degenerate batch: AccessBatch with a
// single request must be byte-for-byte the same as Access.
func TestAccessBatchSizeOne(t *testing.T) {
	s1, o1 := parts(t)
	a1, err := NewAlloy(1<<20, 4, s1, o1)
	if err != nil {
		t.Fatal(err)
	}
	s2, o2 := parts(t)
	a2, err := NewAlloy(1<<20, 4, s2, o2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var resp [1]Response
	at := uint64(0)
	for i := 0; i < 5000; i++ {
		at += uint64(rng.Intn(300))
		r := Request{
			Addr:  mem.BlockAddr(uint64(rng.Intn(2048))),
			PC:    uint64(rng.Intn(256)) * 4,
			Core:  rng.Intn(4),
			Write: rng.Intn(5) == 0,
			At:    at,
		}
		want := a1.Access(r)
		a2.AccessBatch([]Request{r}, resp[:])
		if resp[0] != want {
			t.Fatalf("request %d: size-1 batch %+v != serial %+v", i, resp[0], want)
		}
	}
	w1, w2 := checkpoint.NewWriter(), checkpoint.NewWriter()
	a1.SaveState(w1)
	a2.SaveState(w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Error("checkpoint bytes diverge after size-1 batches")
	}
}
