package sample

import (
	"testing"
)

// FuzzParse hammers the sample-spec flag parser with arbitrary strings: it
// must never panic, and every accepted spec must uphold the invariants the
// sampled-simulation driver relies on — a defaulted spec that validates,
// and a flag form (format) that reparses to the same defaulted spec (so
// flags, logs and golden files round-trip).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"on", "default",
		"warmup=0.5,interval=1000,gap=1000,min=6,max=0,conf=0.95,ci=0.02",
		"warmup=-1,gap=-1,ci=-1",
		"interval=500", "conf=0.99", "ci=0.05", "min=2,max=2",
		"warmup=0.999999", "interval=1073741824", "max=1",
		"confidence=0.9,target=0.1", " warmup = 0.25 , interval = 250 ",
		"", "bogus=1", "interval=", "=5", "conf=NaN", "conf=+Inf",
		"interval=99999999999999999999", "warmup=1", "min=-3",
		"warmup=0.5,,ci=0.02", "interval=0x10", "ci=1e-9", "conf=0.5000",
		"interval=1000\x00", "ｗａｒｍｕｐ=0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		d := s.WithDefaults()
		if verr := d.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted a spec whose defaulted form fails Validate: %v", text, verr)
		}
		// Accepted specs must round-trip through the flag form.
		back, rerr := Parse(s.format())
		if rerr != nil {
			t.Fatalf("Parse(%q).format() = %q does not reparse: %v", text, s.format(), rerr)
		}
		if back.WithDefaults() != d {
			t.Fatalf("round trip changed the spec: %+v vs %+v", back.WithDefaults(), d)
		}
		// The schedule arithmetic must stay panic-free and sane on any
		// accepted spec.
		for _, budget := range []int{0, 1, 999, 80_000} {
			fit, warm := d.Windows(budget)
			if fit < 0 || warm < 0 || warm > budget {
				t.Fatalf("Windows(%d) = fit %d, warm %d on %+v", budget, fit, warm, d)
			}
		}
	})
}
