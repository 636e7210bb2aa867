package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	uc "unisoncache"
	"unisoncache/internal/sim"
)

// referenceJSON holds the engine workloads' expected outputs for every
// simulator seed the benchmark uses, recorded from the code with
// -record-reference.
//
//go:embed reference.json
var referenceJSON []byte

// referenceSlots is how many simulator seeds reference.json covers.
const referenceSlots = 16

// fig7Point is one Figure 7 cell's expected outcome.
type fig7Point struct {
	Workload string  `json:"workload"`
	Design   string  `json:"design"`
	Speedup  float64 `json:"speedup"`
	UIPC     float64 `json:"uipc"`
}

// replayRef is one design's expected observed-replay outcomes, as
// resultDigest hashes.
type replayRef struct {
	Plain       string  `json:"plain_sha256"`
	Sampled     string  `json:"sampled_sha256"`
	SampledUIPC float64 `json:"sampled_uipc"`
}

// reference is the expected output of one simulator seed.
type reference struct {
	Seed   uint64                      `json:"seed"`
	Fig7   []fig7Point                 `json:"fig7"`
	Replay map[uc.DesignKind]replayRef `json:"replay"`
}

type referenceFile struct {
	About      string      `json:"about"`
	References []reference `json:"references"`
}

// loadReference returns the committed reference of a simulator seed.
func loadReference(seed uint64) (reference, error) {
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return reference{}, fmt.Errorf("parsing reference.json: %w", err)
	}
	for _, r := range f.References {
		if r.Seed == seed {
			return r, nil
		}
	}
	return reference{}, fmt.Errorf("reference.json has no entry for simulator seed %d (regenerate with -record-reference)", seed)
}

// resultDigest hashes a Result's simulated content: everything but the
// echoed Run, whose TracePath differs between checkouts.
func resultDigest(res uc.Result) string {
	blob, err := json.Marshal(struct {
		Results sim.Results
		CI      *uc.SampleStats
	}{res.Results, res.CI})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// fig7Reference records a sweep's outcome.
func fig7Reference(res []uc.SpeedupResult) []fig7Point {
	out := make([]fig7Point, len(res))
	for i, p := range res {
		out[i] = fig7Point{
			Workload: p.Design.Run.Workload,
			Design:   string(p.Design.Run.Design),
			Speedup:  p.Speedup,
			UIPC:     p.Design.UIPC,
		}
	}
	return out
}

// recordReference recomputes every seed's reference from the current code
// and writes the file to path.
func recordReference(path, work string) error {
	f := referenceFile{About: "Expected outputs of the engine workloads per simulator seed, recorded by perfbench -record-reference. " +
		"fig7: every SpeedupMany point's speedup and UIPC. replay: SHA-256 of the plain and sampled Results (Run excluded) of the web-serving capture."}
	capture := filepath.Join(work, "reference.utrace")
	for slot := uint64(0); slot < referenceSlots; slot++ {
		seed := slot + 1
		res, err := uc.SpeedupMany(fig7Plan(seed, 0))
		if err != nil {
			return err
		}
		ref := reference{Seed: seed, Fig7: fig7Reference(res), Replay: map[uc.DesignKind]replayRef{}}
		if err := record(captureRun(seed), capture); err != nil {
			return err
		}
		for _, d := range replayDesigns {
			plain, err := uc.Execute(replayRun(capture, d))
			if err != nil {
				return err
			}
			sr := replayRun(capture, d)
			sr.Sampling = uc.DefaultSampleSpec()
			sampled, err := uc.Execute(sr)
			if err != nil {
				return err
			}
			ref.Replay[d] = replayRef{Plain: resultDigest(plain), Sampled: resultDigest(sampled), SampledUIPC: sampled.UIPC}
		}
		f.References = append(f.References, ref)
		fmt.Fprintf(os.Stderr, "reference: seed %d recorded\n", seed)
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
