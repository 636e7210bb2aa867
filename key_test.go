package unisoncache_test

import (
	"os"
	"path/filepath"
	"testing"

	uc "unisoncache"
)

// TestRunKeyCanonical: the content-addressed key collapses implicit and
// explicit defaults, separates genuinely different configurations, and
// is a stable 64-hex-digit SHA-256.
func TestRunKeyCanonical(t *testing.T) {
	implicit := uc.Run{Workload: "web-search", Design: uc.DesignUnison, Capacity: 1 << 30}
	explicit := uc.Run{
		Workload: "web-search", Design: uc.DesignUnison, Capacity: 1 << 30,
		AccessesPerCore: 400_000, Seed: 1, Cores: 16,
		UnisonWays: 4, FCWays: 32, ScaleDivisor: uc.AutoScaleDivisor(1 << 30),
	}
	k1, err := uc.RunKey(implicit)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := uc.RunKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("implicit/explicit defaults: %s != %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	other := implicit
	other.Seed = 2
	if k3, _ := uc.RunKey(other); k3 == k1 {
		t.Error("seed change kept the key")
	}

	// Pinned values: a key that drifts silently orphans every result a
	// daemon's store holds under the old one.
	sampled := implicit
	sampled.Sampling = uc.DefaultSampleSpec()
	observed := implicit
	observed.Telemetry = uc.DefaultTelemetrySpec()
	for _, c := range []struct {
		name string
		run  uc.Run
		want string
	}{
		{"sampled", sampled, "15380caff9fdcef9df4210648b79f61f4777f52fa4c1d780f26f1ec258aaa17f"},
		{"telemetry", observed, "bece8fa5857581fecae87d8c538550ce02ed5f6a00f0b4f65cd90edc98172278"},
	} {
		if got, err := uc.RunKey(c.run); err != nil || got != c.want {
			t.Errorf("%s run key = %s (%v), want %s", c.name, got, err, c.want)
		}
	}
}

// TestRunKeyTraceDigest: a replay run's key binds both the capture path
// (Execute echoes it verbatim in Result.Run, so distinct paths must not
// share cached results) and the capture's content (editing the file
// under an unchanged path invalidates the key — the property that makes
// TracePath runs safe to cache). A missing file is an error.
func TestRunKeyTraceDigest(t *testing.T) {
	dir := t.TempDir()
	rec := uc.Run{Workload: "web-search", Capacity: 256 << 20, Cores: 2, AccessesPerCore: 500}
	write := func(name string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := uc.RecordTrace(rec, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.utrace"), write("b.utrace")

	run := uc.Run{Design: uc.DesignUnison, Capacity: 256 << 20, TracePath: a}
	ka, err := uc.RunKey(run)
	if err != nil {
		t.Fatal(err)
	}
	// Stable: rehashing the same path + content reproduces the key.
	if again, _ := uc.RunKey(run); again != ka {
		t.Errorf("key not stable: %s vs %s", ka, again)
	}
	run.TracePath = b
	kb, err := uc.RunKey(run)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Error("identical captures at different paths share a key — a cached Result would echo the wrong TracePath")
	}

	// Flip one byte: the same path must now key differently.
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}
	kc, err := uc.RunKey(run)
	if err != nil {
		t.Fatal(err)
	}
	if kc == kb {
		t.Error("capture content changed but the key did not")
	}

	run.TracePath = filepath.Join(dir, "missing.utrace")
	if _, err := uc.RunKey(run); err == nil {
		t.Error("missing trace file produced a key")
	}
}
