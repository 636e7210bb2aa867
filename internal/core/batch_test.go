package core

import (
	"bytes"
	"math/rand"
	"testing"

	"unisoncache/internal/checkpoint"
	"unisoncache/internal/dramcache"
)

// TestAccessBatchMatchesSerial drives two Unisons through the same request
// stream — Access per request on one, AccessBatch in random-size batches
// on the other — and requires bit-identical responses, statistics and
// checkpoint bytes: AccessBatch is documented as Access applied in slice
// order. The stream reuses a small page pool so way-predictor training,
// page hits and evictions all occur within a batch.
func TestAccessBatchMatchesSerial(t *testing.T) {
	build := func() *Unison {
		u, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4})
		return u
	}
	serial := build()
	batched := build()

	rng := rand.New(rand.NewSource(42))
	const total = 20000
	reqs := make([]dramcache.Request, 0, 64)
	want := make([]dramcache.Response, 64)
	got := make([]dramcache.Response, 64)
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
			reqs = append(reqs, dramcache.Request{
				Addr:  ucAddr(uint64(rng.Intn(600)), rng.Intn(15)),
				PC:    uint64(rng.Intn(512)) * 4,
				Core:  rng.Intn(4),
				Write: rng.Intn(4) == 0,
				At:    at,
			})
		}
		for i, r := range reqs {
			want[i] = serial.Access(r)
		}
		batched.AccessBatch(reqs, got)
		for i := range reqs {
			if got[i] != want[i] {
				t.Fatalf("request %d of batch at %d: batched %+v != serial %+v",
					i, done, got[i], want[i])
			}
		}
		done += n
		if done == total/2 {
			serial.ResetStats()
			batched.ResetStats()
		}
	}

	s, b := serial.Snapshot(), batched.Snapshot()
	if (s.WP == nil) != (b.WP == nil) || (s.WP != nil && *s.WP != *b.WP) {
		t.Errorf("way-predictor stats diverge: %v vs %v", s.WP, b.WP)
	}
	s.WP, s.FP, s.FO, s.MP = nil, nil, nil, nil
	b.WP, b.FP, b.FO, b.MP = nil, nil, nil, nil
	if s != b {
		t.Errorf("snapshots diverge:\nserial  %+v\nbatched %+v", s, b)
	}
	ws, wb := checkpoint.NewWriter(), checkpoint.NewWriter()
	serial.SaveState(ws)
	batched.SaveState(wb)
	if !bytes.Equal(ws.Bytes(), wb.Bytes()) {
		t.Error("checkpoint bytes diverge after batched run")
	}
}
