package campaign

// The record layer: completed profiles stream to the output directory as
// they finish (caliper.WriteFile in the orchestrator), and this manifest
// persists per-spec status alongside them so an interrupted campaign
// resumes exactly where it stopped. The manifest checkpoint is rewritten
// atomically (temp file + fsync + rename); between checkpoints, per-spec
// outcomes are journaled to a fsynced write-ahead log (journal.go), so a
// crash at any point loses at most the record being appended — never a
// finished spec, never a torn file.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rajaperf/internal/caliper"
)

// ManifestName is the manifest's file name inside a campaign output
// directory. It deliberately does not carry caliper.FileExt, so profile
// readers (caliper.ReadDir, thicket.FromDir) never mistake it for a run.
const ManifestName = "campaign_manifest.json"

// ManifestEntry records the outcome of one spec.
type ManifestEntry struct {
	Spec     RunSpec `json:"spec"`
	File     string  `json:"file,omitempty"` // profile file name, relative to the directory
	Status   Status  `json:"status"`
	Error    string  `json:"error,omitempty"`
	WallSec  float64 `json:"wall_sec,omitempty"`
	Attempts int     `json:"attempts,omitempty"` // run attempts consumed (retry policy)
}

// Manifest is the campaign's on-disk checkpoint: one entry per finished
// spec, keyed by spec ID.
type Manifest struct {
	Version int                      `json:"version"`
	Entries map[string]ManifestEntry `json:"entries"`
}

// manifestVersion guards against future format changes.
const manifestVersion = 1

// NewManifest returns an empty manifest.
func NewManifest() *Manifest {
	return &Manifest{Version: manifestVersion, Entries: map[string]ManifestEntry{}}
}

// ManifestPath returns the manifest location for a campaign directory.
func ManifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// LoadManifest reads the manifest of a campaign directory: the base
// checkpoint, plus any write-ahead journal records newer than it (see
// journal.go), plus the per-shard WALs a distributed campaign's workers
// journal (shard.go) — so readers observe every spec outcome that
// reached *any* durability point even after a crash of the coordinator
// or a worker. A missing file is not an error: it returns an empty
// manifest, so fresh and resumed campaigns share one code path.
func LoadManifest(dir string) (*Manifest, error) {
	m, err := loadBaseManifest(dir)
	if err != nil {
		return nil, err
	}
	if _, _, err := replayJournal(dir, m); err != nil {
		return nil, err
	}
	if _, _, err := MergeShardWALs(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// loadBaseManifest reads only the manifest checkpoint, without journal
// replay.
func loadBaseManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if os.IsNotExist(err) {
		return NewManifest(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: corrupt manifest %s: %w", ManifestPath(dir), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("campaign: manifest %s has version %d, want %d",
			ManifestPath(dir), m.Version, manifestVersion)
	}
	if m.Entries == nil {
		m.Entries = map[string]ManifestEntry{}
	}
	return &m, nil
}

// Write persists the manifest atomically into dir, creating it if needed.
func (m *Manifest) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: %w", err)
	}
	if err := os.Rename(tmp.Name(), ManifestPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// Completed reports whether spec s finished successfully in a previous
// campaign over dir and its recorded profile still exists and validates —
// the resume criterion. A done entry whose profile has since been deleted,
// truncated, or corrupted does not count: the spec re-runs. So does one
// recorded under another dispatch mode or service set, which the spec ID
// does not carry.
func (m *Manifest) Completed(dir string, s RunSpec) bool {
	e, ok := m.Entries[s.ID()]
	if !ok || e.Status != StatusDone || e.File == "" ||
		e.Spec.Dispatch != s.Dispatch || e.Spec.Services != s.Services {
		return false
	}
	p, err := caliper.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return false
	}
	// The profile must identify as this spec's run, guarding against a
	// stale manifest pointing at a foreign file.
	if got, _ := p.Metadata["campaign.spec"].(string); got != s.ID() {
		return false
	}
	return true
}

// Counts tallies the manifest's entries by status.
func (m *Manifest) Counts() (done, failed int) {
	for _, e := range m.Entries {
		switch e.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		}
	}
	return done, failed
}
