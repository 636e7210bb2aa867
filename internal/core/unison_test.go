package core

import (
	"testing"

	"unisoncache/internal/dram"
	"unisoncache/internal/dramcache"
	"unisoncache/internal/mem"
	"unisoncache/internal/predictor"
)

func parts(t *testing.T) (stacked, offchip *dram.Controller) {
	t.Helper()
	s, err := dram.NewController(dram.StackedConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := dram.NewController(dram.OffchipConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

func newUC(t *testing.T, cfg Config) (*Unison, *dram.Controller, *dram.Controller) {
	t.Helper()
	s, o := parts(t)
	u, err := New(cfg, s, o)
	if err != nil {
		t.Fatal(err)
	}
	return u, s, o
}

func std(t *testing.T) (*Unison, *dram.Controller, *dram.Controller) {
	return newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4})
}

// ucAddr returns the byte address of block off within 960B page p.
func ucAddr(page uint64, off int) mem.Addr {
	return mem.BlockAddr(page*15 + uint64(off))
}

func TestConfigValidation(t *testing.T) {
	s, o := parts(t)
	bad := []Config{
		{CapacityBytes: 1 << 20, PageBlocks: 16, Ways: 4}, // not 2^n-1
		{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 3},
		{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 0},
		{CapacityBytes: 100, PageBlocks: 15, Ways: 4},
		{CapacityBytes: 1 << 20, PageBlocks: 0, Ways: 4},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, s, o); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestGeometryTableII(t *testing.T) {
	u, _, _ := std(t)
	g := u.Geometry()
	if g.DataBlocksPerRow() != 120 {
		t.Errorf("blocks/row = %d, want 120", g.DataBlocksPerRow())
	}
	// 1MB = 128 rows x 2 sets.
	if u.Sets() != 256 {
		t.Errorf("sets = %d, want 256", u.Sets())
	}
}

func TestGeometry1984(t *testing.T) {
	u, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 31, Ways: 4})
	if u.Geometry().DataBlocksPerRow() != 124 {
		t.Errorf("blocks/row = %d, want 124", u.Geometry().DataBlocksPerRow())
	}
	if u.Sets() != 128 {
		t.Errorf("sets = %d, want 128 (one set per row)", u.Sets())
	}
}

func TestGeometry32Way(t *testing.T) {
	// The Figure 5 reference point: 32 ways span multiple rows.
	u, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 32})
	if u.Sets() == 0 {
		t.Fatal("no sets")
	}
	if u.Sets() >= 128 {
		t.Errorf("sets = %d: 32-way sets should span multiple rows", u.Sets())
	}
}

func TestPageOfUsesResidueUnit(t *testing.T) {
	u, _, _ := std(t)
	for _, a := range []uint64{0, 64, 959, 960, 961, 14 * 64, 15 * 64, 1 << 30} {
		page, off := u.PageOf(mem.Addr(a))
		wantPage := (a >> 6) / 15
		wantOff := int((a >> 6) % 15)
		if page != wantPage || off != wantOff {
			t.Errorf("PageOf(%d) = (%d,%d), want (%d,%d)", a, page, off, wantPage, wantOff)
		}
	}
}

func TestTriggerMissFetchesFullPageCold(t *testing.T) {
	u, _, o := std(t)
	r := u.Access(dramcache.Request{Addr: ucAddr(3, 4), PC: 7, At: 0})
	if r.Hit {
		t.Error("cold access hit")
	}
	if got := o.Stats().BytesRead; got != 15*64 {
		t.Errorf("cold trigger fetched %d bytes, want 960", got)
	}
	if u.Snapshot().TriggerMisses != 1 {
		t.Error("trigger miss not counted")
	}
}

func TestSpatialHitsAfterTrigger(t *testing.T) {
	u, _, _ := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
	for off := 1; off < 15; off++ {
		res := u.Access(dramcache.Request{Addr: ucAddr(3, off), PC: 7, At: at})
		if !res.Hit {
			t.Fatalf("block %d missed after footprint fetch", off)
		}
		at = res.DoneAt
	}
	snap := u.Snapshot()
	if snap.ReadHits != 14 {
		t.Errorf("ReadHits = %d, want 14", snap.ReadHits)
	}
}

// evictSet fills page's set with 4 fresh pages (stride = set count).
func evictSet(u *Unison, page uint64, at uint64) uint64 {
	sets := u.Sets()
	for i := uint64(1); i <= 4; i++ {
		at = u.Access(dramcache.Request{Addr: ucAddr(page+i*sets, 0), PC: 999, At: at}).DoneAt
		at = u.Access(dramcache.Request{Addr: ucAddr(page+i*sets, 1), PC: 999, At: at}).DoneAt
	}
	return at
}

func TestFootprintLearningReducesFetch(t *testing.T) {
	u, _, o := std(t)
	// Visit page 0 with PC 5 touching blocks {0,2}.
	at := u.Access(dramcache.Request{Addr: ucAddr(0, 0), PC: 5, At: 0}).DoneAt
	at = u.Access(dramcache.Request{Addr: ucAddr(0, 2), PC: 5, At: at}).DoneAt
	at = evictSet(u, 0, at)
	// New page triggered by PC 5 at offset 0: fetch only {0,2}.
	before := o.Stats().BytesRead
	u.Access(dramcache.Request{Addr: ucAddr(77, 0), PC: 5, At: at})
	if got := o.Stats().BytesRead - before; got != 2*64 {
		t.Errorf("learned trigger fetched %d bytes, want 128", got)
	}
}

func TestUnderpredictionSingleBlockFetch(t *testing.T) {
	u, _, o := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(0, 0), PC: 5, At: 0}).DoneAt
	at = u.Access(dramcache.Request{Addr: ucAddr(0, 2), PC: 5, At: at}).DoneAt
	at = evictSet(u, 0, at)
	at = u.Access(dramcache.Request{Addr: ucAddr(77, 0), PC: 5, At: at}).DoneAt
	// Unpredicted block 9 of the resident page: one-block fetch, counted
	// as an underprediction miss.
	before := o.Stats().BytesRead
	res := u.Access(dramcache.Request{Addr: ucAddr(77, 9), PC: 5, At: at})
	if res.Hit {
		t.Error("unpredicted block hit")
	}
	if got := o.Stats().BytesRead - before; got != 64 {
		t.Errorf("underprediction fetched %d bytes, want 64", got)
	}
	snap := u.Snapshot()
	if snap.UnderpredMisses != 1 {
		t.Errorf("UnderpredMisses = %d, want 1", snap.UnderpredMisses)
	}
	// After eviction, the footprint entry includes block 9: no repeat
	// underprediction (§III-A.3).
	at = res.DoneAt
	at = evictSet(u, 77, at)
	at = u.Access(dramcache.Request{Addr: ucAddr(150, 0), PC: 5, At: at}).DoneAt
	if res := u.Access(dramcache.Request{Addr: ucAddr(150, 9), PC: 5, At: at}); !res.Hit {
		t.Error("footprint not repaired after underprediction eviction")
	}
}

func TestSingletonBypassAndPromotion(t *testing.T) {
	u, _, _ := std(t)
	// Train PC 7 singleton at offset 3.
	at := u.Access(dramcache.Request{Addr: ucAddr(0, 3), PC: 7, At: 0}).DoneAt
	at = evictSet(u, 0, at)
	// Predicted singleton: bypass.
	at = u.Access(dramcache.Request{Addr: ucAddr(50, 3), PC: 7, At: at}).DoneAt
	snap := u.Snapshot()
	if snap.SingletonSkips != 1 {
		t.Fatalf("SingletonSkips = %d, want 1", snap.SingletonSkips)
	}
	if _, ok := u.Table().Lookup(u.Table().SetOf(50), 50); ok {
		t.Error("bypassed page allocated")
	}
	// Second block demanded: promote and allocate.
	u.Access(dramcache.Request{Addr: ucAddr(50, 8), PC: 7, At: at})
	if _, ok := u.Table().Lookup(u.Table().SetOf(50), 50); !ok {
		t.Error("promoted page not allocated")
	}
}

func TestSingletonDisabled(t *testing.T) {
	u, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4, DisableSingleton: true})
	at := u.Access(dramcache.Request{Addr: ucAddr(0, 3), PC: 7, At: 0}).DoneAt
	at = evictSet(u, 0, at)
	u.Access(dramcache.Request{Addr: ucAddr(50, 3), PC: 7, At: at})
	if u.Snapshot().SingletonSkips != 0 {
		t.Error("singleton bypass fired while disabled")
	}
	if _, ok := u.Table().Lookup(u.Table().SetOf(50), 50); !ok {
		t.Error("page not allocated with singleton disabled")
	}
}

func TestWayPredictionLearnsAndMispredictIsCheap(t *testing.T) {
	u, _, _ := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
	// First hit trains the way; second hit must be predicted correctly.
	r1 := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: at})
	r2 := u.Access(dramcache.Request{Addr: ucAddr(3, 2), PC: 7, At: r1.DoneAt})
	lat1 := r1.DoneAt - at
	lat2 := r2.DoneAt - r1.DoneAt
	if lat2 > lat1 {
		t.Errorf("predicted-way hit (%d) slower than earlier hit (%d)", lat2, lat1)
	}
	wp := u.Snapshot().WP
	if wp == nil || wp.Den == 0 {
		t.Fatal("way prediction not recorded")
	}
}

func TestWayMispredictPenaltyIsRowBufferHit(t *testing.T) {
	u, s, _ := std(t)
	// Two pages in one set that also share a way-predictor entry: page 3
	// and the first page above it congruent mod sets whose XOR-folded
	// hash matches (0x100103 at this geometry). Allocating both leaves
	// page 3 in way 0 and the shared entry predicting way 1.
	sets := uint64(u.Sets())
	bits := predictor.HashBitsFor(1 << 20)
	other := uint64(3) + sets
	for mem.XORFoldHash(other, bits) != mem.XORFoldHash(3, bits) {
		other += sets
	}
	at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
	at = u.Access(dramcache.Request{Addr: ucAddr(other, 0), PC: 7, At: at}).DoneAt

	// A hit on page 3 reads way 1's slot first, mispredicts, and re-reads
	// way 0 from the row the first read opened.
	before := s.Stats()
	start := at + 1000
	mispredicted := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: start}).DoneAt - start
	after := s.Stats()
	if wp := u.Snapshot().WP; wp == nil || wp.Num != 0 || wp.Den != 1 {
		t.Fatalf("way prediction %+v, want 0 of 1 correct", wp)
	}
	if after.Activations != before.Activations {
		t.Errorf("mispredicted hit activated %d rows; the re-read should reuse the open row", after.Activations-before.Activations)
	}
	if after.RowHits != before.RowHits+2 {
		t.Errorf("mispredicted hit added %d row hits, want 2: the first read and the re-read", after.RowHits-before.RowHits)
	}

	// The next hit on page 3 is predicted correctly, and faster.
	start += 1000
	predicted := u.Access(dramcache.Request{Addr: ucAddr(3, 2), PC: 7, At: start}).DoneAt - start
	if wp := u.Snapshot().WP; wp.Num != 1 || wp.Den != 2 {
		t.Fatalf("way prediction %+v, want 1 of 2 correct", wp)
	}
	if mispredicted <= predicted {
		t.Errorf("mispredicted hit took %d cycles, predicted hit %d", mispredicted, predicted)
	}
}

func TestFetchAllWaysAblationTraffic(t *testing.T) {
	// §V-B: without way prediction, all ways stream on every hit — 4x hit
	// traffic.
	uPred, sPred, _ := std(t)
	uAll, sAll, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4, DisableWayPrediction: true})

	run := func(u *Unison) {
		at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
		for off := 1; off < 15; off++ {
			at = u.Access(dramcache.Request{Addr: ucAddr(3, off), PC: 7, At: at}).DoneAt
		}
	}
	run(uPred)
	run(uAll)
	predBytes := sPred.Stats().BytesRead
	allBytes := sAll.Stats().BytesRead
	if allBytes < predBytes*2 {
		t.Errorf("fetch-all-ways read %d stacked bytes vs %d with prediction; expected ~4x", allBytes, predBytes)
	}
	if uAll.Snapshot().WP != nil {
		t.Error("ablation still reports WP stats")
	}
}

func TestSerializedTagDataSlower(t *testing.T) {
	// §III-A: overlapping tag and data reads is the latency win; the
	// serialized ablation must have strictly higher hit latency.
	uFast, _, _ := std(t)
	uSlow, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4, SerializeTagData: true})
	hitLat := func(u *Unison) uint64 {
		at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
		r := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: at + 1000})
		return r.DoneAt - (at + 1000)
	}
	f, s := hitLat(uFast), hitLat(uSlow)
	if s <= f {
		t.Errorf("serialized hit latency %d <= overlapped %d", s, f)
	}
}

func TestHitLatencyCloseToAlloy(t *testing.T) {
	// The design claim: UC's overlapped tag+data read costs the same as
	// AC's TAD stream within the 2-cycle tag-burst overhead.
	u, _, _ := std(t)
	s2, o2 := parts(t)
	a, err := dramcache.NewAlloy(1<<20, 16, s2, o2)
	if err != nil {
		t.Fatal(err)
	}
	atU := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt + 1000
	rU := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: atU})
	ucLat := rU.DoneAt - atU

	rA0 := a.Access(dramcache.Request{Addr: 4096, PC: 7, At: 0})
	atA := rA0.DoneAt + 1000
	rA := a.Access(dramcache.Request{Addr: 4096, PC: 7, At: atA})
	acLat := rA.DoneAt - atA

	if ucLat > acLat+4 {
		t.Errorf("UC hit latency %d exceeds AC %d by more than the tag burst", ucLat, acLat)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	u, _, o := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(0, 0), PC: 5, At: 0}).DoneAt
	at = u.Access(dramcache.Request{Addr: ucAddr(0, 1), PC: 5, Write: true, At: at}).DoneAt
	before := o.Stats().BytesWritten
	evictSet(u, 0, at)
	if got := o.Stats().BytesWritten - before; got != 64 {
		t.Errorf("dirty eviction wrote %d bytes, want 64", got)
	}
}

func TestWriteToAbsentPageWritesThrough(t *testing.T) {
	u, _, o := std(t)
	u.Access(dramcache.Request{Addr: ucAddr(10, 0), PC: 1, Write: true, At: 0})
	if o.Stats().BytesWritten != 64 {
		t.Errorf("write-through bytes = %d", o.Stats().BytesWritten)
	}
	if _, ok := u.Table().Lookup(u.Table().SetOf(10), 10); ok {
		t.Error("write miss allocated")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	u, _, o := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
	before := o.Stats().BytesWritten
	r := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, Write: true, At: at})
	if !r.Hit {
		t.Error("write to fetched block missed")
	}
	if o.Stats().BytesWritten != before {
		t.Error("write hit went off-chip")
	}
}

func TestAssociativityReducesConflicts(t *testing.T) {
	// §III-A.5: 4 hot pages mapping to one set thrash a direct-mapped
	// cache but coexist in a 4-way cache.
	u4, _, _ := std(t)
	u1, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 1})

	thrash := func(u *Unison) float64 {
		sets := u.Sets()
		var at uint64
		for round := 0; round < 20; round++ {
			for p := uint64(0); p < 4; p++ {
				at = u.Access(dramcache.Request{Addr: ucAddr(3+p*sets, 0), PC: 7, At: at}).DoneAt
			}
		}
		return u.Snapshot().MissRatioPct()
	}
	m4 := thrash(u4)
	m1 := thrash(u1)
	if m4 >= m1 {
		t.Errorf("4-way miss ratio %.1f%% not below direct-mapped %.1f%%", m4, m1)
	}
	if m4 > 20 {
		t.Errorf("4-way should hold all four hot pages, miss ratio %.1f%%", m4)
	}
}

func TestMissLatencySlowerThanHit(t *testing.T) {
	u, _, _ := std(t)
	miss := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0})
	hit := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: miss.DoneAt + 1000})
	if hit.DoneAt-(miss.DoneAt+1000) >= miss.DoneAt {
		t.Error("hit latency not below miss latency")
	}
}

func TestResetStatsKeepsContent(t *testing.T) {
	u, _, _ := std(t)
	at := u.Access(dramcache.Request{Addr: ucAddr(3, 0), PC: 7, At: 0}).DoneAt
	u.ResetStats()
	if u.Snapshot().Reads != 0 {
		t.Error("ResetStats did not zero")
	}
	if r := u.Access(dramcache.Request{Addr: ucAddr(3, 1), PC: 7, At: at}); !r.Hit {
		t.Error("ResetStats lost page")
	}
}

func TestSnapshotShape(t *testing.T) {
	u, _, _ := std(t)
	s := u.Snapshot()
	if s.Name != "unison" {
		t.Error("name")
	}
	if s.FP == nil || s.FO == nil || s.WP == nil {
		t.Error("missing predictor stats")
	}
	if s.MP != nil {
		t.Error("unison should not report MP")
	}
}

func TestPredictorsAccessor(t *testing.T) {
	u, _, _ := std(t)
	fp, wp, st := u.Predictors()
	if fp == nil || wp == nil || st == nil {
		t.Error("nil predictor")
	}
}

func TestCapacityScalingSets(t *testing.T) {
	u1, _, _ := newUC(t, Config{CapacityBytes: 1 << 20, PageBlocks: 15, Ways: 4})
	u8, _, _ := newUC(t, Config{CapacityBytes: 8 << 20, PageBlocks: 15, Ways: 4})
	if u8.Sets() != 8*u1.Sets() {
		t.Errorf("sets not linear in capacity: %d vs %d", u1.Sets(), u8.Sets())
	}
}
