package unisoncache

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"unisoncache/internal/sim"
	"unisoncache/internal/trace"
)

// Profile is the statistical description of a workload: the internal
// generator's own parameters, internal/trace.Profile, whose field docs
// say how each field shapes the generated access stream (DESIGN.md §7).
// Register one under a name with RegisterWorkload and every entry point
// that takes a workload name (Execute, Speedup, Plan, Sweep, SpeedupMany)
// accepts it exactly like the six built-ins. Name is filled in by
// RegisterWorkload and WorkloadProfile.
type Profile = trace.Profile

var (
	// builtins is the built-in workload table, built once and never
	// mutated: lookupProfile hands out its profiles, and every caller
	// copies before scaling.
	builtins   = trace.Profiles()
	workloadMu sync.RWMutex
	registered = map[string]*Profile{}
)

// RegisterWorkload adds (or replaces) a user-defined workload under name,
// which overrides p.Name. The profile is validated now, so a registered
// name never fails at execution time. Built-in names cannot be shadowed.
// Registration is safe for concurrent use, but the name's meaning must not
// change while a Plan referencing it is executing: the sweep engine
// memoizes results by Run configuration, and the workload name is part of
// that key.
func RegisterWorkload(name string, p Profile) error {
	if name == "" {
		return fmt.Errorf("unisoncache: empty workload name")
	}
	if _, builtin := builtins[name]; builtin {
		return fmt.Errorf("unisoncache: workload %q would shadow a built-in", name)
	}
	p.Name = name
	if err := p.Validate(); err != nil {
		return fmt.Errorf("unisoncache: workload %q: %w", name, err)
	}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	registered[name] = &p
	return nil
}

// Workloads lists every selectable workload name: the six built-ins in the
// paper's canonical figure order, then registered workloads sorted by name.
func Workloads() []string {
	names := trace.Names()
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	extra := make([]string, 0, len(registered))
	for n := range registered {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// WorkloadProfile returns the profile registered or built in under name,
// with Name set to it.
func WorkloadProfile(name string) (Profile, bool) {
	p, ok := lookupProfile(name)
	if !ok {
		return Profile{}, false
	}
	return *p, true
}

// lookupProfile resolves a workload name: built-ins first, then the
// registry. The returned profile is never mutated by callers (scaling
// copies it).
func lookupProfile(name string) (*trace.Profile, bool) {
	if p, ok := builtins[name]; ok {
		return p, true
	}
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	p, ok := registered[name]
	return p, ok
}

// scaleProfile applies the proportional-scaling methodology to the working
// set (DESIGN.md §5), flooring at one region.
func scaleProfile(p *trace.Profile, divisor int) *trace.Profile {
	scaled := *p
	scaled.WorkingSetBytes = p.WorkingSetBytes / uint64(divisor)
	if scaled.WorkingSetBytes < trace.RegionBytes {
		scaled.WorkingSetBytes = trace.RegionBytes
	}
	return &scaled
}

// liveSources builds the per-core synthetic streams Execute(r) replays: the
// workload's profile, scaled by r.ScaleDivisor, seeded by (r.Seed, core).
func liveSources(r Run) ([]trace.Source, error) {
	if r.Cores <= 0 {
		return nil, fmt.Errorf("unisoncache: Cores must be positive, got %d", r.Cores)
	}
	prof, ok := lookupProfile(r.Workload)
	if !ok {
		return nil, fmt.Errorf("unisoncache: unknown workload %q (have %v)", r.Workload, Workloads())
	}
	scaled := scaleProfile(prof, r.ScaleDivisor)
	sources := make([]trace.Source, r.Cores)
	for i := range sources {
		s, err := trace.NewStream(scaled, r.Seed, i)
		if err != nil {
			return nil, err
		}
		sources[i] = s
	}
	return sources, nil
}

// RecordTrace captures to w, in the .utrace binary format, the exact
// per-core event streams Execute(r) would replay live: r.AccessesPerCore
// events on each of r.Cores cores. Executing the same Run with TracePath
// pointing at the capture yields Results bit-identical to the live run. The
// capture freezes the events themselves, so it outlives the workload's
// registration and reproduces runs across processes and machines.
func RecordTrace(r Run, w io.Writer) error {
	if r.TracePath != "" {
		return fmt.Errorf("unisoncache: cannot record from a replay (TracePath set)")
	}
	r = r.withDefaults()
	if r.ScaleDivisor < 1 {
		return fmt.Errorf("unisoncache: ScaleDivisor must be >= 1, got %d", r.ScaleDivisor)
	}
	sources, err := liveSources(r)
	if err != nil {
		return err
	}
	return trace.WriteTrace(w, trace.FileHeader{
		Profile:       r.Workload,
		Seed:          r.Seed,
		ScaleDivisor:  r.ScaleDivisor,
		Cores:         r.Cores,
		EventsPerCore: r.AccessesPerCore,
	}, sources)
}

// captures is the process's memo of the capture replays last verified.
// It pins one capture's bytes between runs, so a design sweep or a
// segmented run over one capture reads and verifies it once.
var captures captureMemo

// captureMemo holds the most recently verified capture, the path it was
// read from, and its cores' L1 outcome streams. Its mutex is held through
// a load, so concurrent first users of a capture verify it once.
type captureMemo struct {
	mu   sync.Mutex
	path string
	c    *trace.Capture
	l1   *sim.L1Outcomes
}

// load returns the verified capture the file at path holds now, with the
// L1 outcome streams of every machine newMachine builds (the streams are
// built in the same pass that verifies the events). The memoized capture
// is returned only when path names it and the file's bytes still equal
// it; any other case reads and verifies the file and memoizes the result.
func (m *captureMemo) load(path string) (*trace.Capture, *sim.L1Outcomes, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("unisoncache: opening trace: %w", err)
	}
	defer f.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.path == path {
		// A read error during the compare counts as a difference: the
		// full read below reports it.
		if same, err := m.c.Equal(f); same && err == nil {
			return m.c, m.l1, nil
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, fmt.Errorf("unisoncache: rereading trace: %w", err)
		}
	}
	// Every machine newMachine builds has the default L1.
	b, err := sim.NewL1OutcomeBuilder(sim.Default().L1)
	if err != nil {
		return nil, nil, err
	}
	c, err := trace.ReadCapture(f, b)
	if err != nil {
		return nil, nil, err
	}
	m.path, m.c, m.l1 = path, c, b.Outcomes()
	return c, m.l1, nil
}

// replaySources loads r.TracePath and returns the capture's per-core
// sources and L1 outcome streams, reconciling the Run against the file
// header: zero-valued Workload, Seed, Cores and AccessesPerCore take the
// header's values; explicitly set ones must match (AccessesPerCore may
// replay a prefix), and the run's effective ScaleDivisor must equal the
// capture's.
func replaySources(r Run) (Run, []trace.Source, *sim.L1Outcomes, error) {
	c, l1, err := captures.load(r.TracePath)
	if err != nil {
		return r, nil, nil, err
	}
	hdr := c.Header()
	if r.Workload == "" {
		r.Workload = hdr.Profile
	} else if r.Workload != hdr.Profile {
		return r, nil, nil, fmt.Errorf("unisoncache: trace %s was captured from workload %q, not %q", r.TracePath, hdr.Profile, r.Workload)
	}
	if r.Seed == 0 {
		r.Seed = hdr.Seed
	} else if r.Seed != hdr.Seed {
		return r, nil, nil, fmt.Errorf("unisoncache: trace %s was captured with seed %d, not %d", r.TracePath, hdr.Seed, r.Seed)
	}
	// The frozen events embed the capture-time divided working set, so a
	// replay under any other divisor would silently break the
	// capacity-to-working-set ratio. r.ScaleDivisor is already defaulted
	// (auto from Capacity) and validated >= 1 by Execute.
	if r.ScaleDivisor != hdr.ScaleDivisor {
		return r, nil, nil, fmt.Errorf("unisoncache: trace %s was captured at scale divisor %d, run uses %d (match the capture's Capacity/ScaleDivisor)", r.TracePath, hdr.ScaleDivisor, r.ScaleDivisor)
	}
	if r.Cores == 0 {
		r.Cores = hdr.Cores
	} else if r.Cores != hdr.Cores {
		return r, nil, nil, fmt.Errorf("unisoncache: trace %s holds %d cores, run wants %d", r.TracePath, hdr.Cores, r.Cores)
	}
	if r.AccessesPerCore == 0 {
		r.AccessesPerCore = hdr.EventsPerCore
	} else if r.AccessesPerCore > hdr.EventsPerCore {
		return r, nil, nil, fmt.Errorf("unisoncache: trace %s holds %d events per core, run wants %d", r.TracePath, hdr.EventsPerCore, r.AccessesPerCore)
	}
	replays := c.Sources()
	sources := make([]trace.Source, len(replays))
	for i, rs := range replays {
		sources[i] = rs
	}
	return r, sources, l1, nil
}

// sources resolves the Run's event producers — a .utrace replay when
// TracePath is set, live synthetic streams otherwise — and returns the Run
// with any header-derived fields filled in. A replay also returns its
// capture's L1 outcome streams; live streams return none, and their
// machines simulate the L1.
func (r Run) sources() (Run, []trace.Source, *sim.L1Outcomes, error) {
	if r.TracePath != "" {
		return replaySources(r)
	}
	live, err := liveSources(r)
	return r, live, nil, err
}
