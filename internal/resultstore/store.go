// Package resultstore is the durable half of sweep-as-a-service: a
// content-addressed archive of completed experiment results. Entries
// are keyed by engine.PointKey — a hash over a point's fully-resolved
// inputs salted with the simulator's code version — so any sweep whose
// grid overlaps an earlier one recalls the shared points instead of
// recomputing them, a killed sweep resumes where it died, and shards of
// one plan running on separate processes share a single archive with no
// coordination beyond the filesystem.
//
// Layout: one JSON file per result at DIR/objects/<key[:2]>/<key>.json
// (the two-character fan-out keeps directories small at archive sizes
// where a flat directory would degrade). Writes go to a temp file in
// the final directory followed by an atomic rename, so a SIGKILL at any
// instant leaves either a complete entry or none — never a torn one —
// which is what makes kill-and-resume byte-identical to an
// uninterrupted run.
//
// The encoding is the stats package's exact JSON round-trip (see
// internal/stats codec): integer counters stay exact, float metric
// values travel as shortest-round-trip strings, so a recalled result
// reproduces every CSV cell and JSONL field of the computed one.
package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"tokencoherence/internal/stats"
)

// envelope is one stored entry. The key is repeated inside the file so
// a misplaced or hand-renamed entry is detected at Get instead of
// silently satisfying the wrong point. Version records the code-version
// salt the entry was computed under: the key hash already mixes the
// salt in, but a hash cannot be inverted, so without the explicit field
// stale archives from before a version bump are indistinguishable from
// live ones and accumulate forever (see GC).
type envelope struct {
	Key     string          `json:"key"`
	Version string          `json:"version,omitempty"`
	Run     *stats.Run      `json:"run"`
	Metrics *stats.Snapshot `json:"metrics"`
}

// encode renders one entry as its canonical file bytes. The encoding is
// deterministic for equal inputs (struct field order is fixed, the stats
// codecs are exact), so two writers racing on one key write identical
// files.
func encode(env envelope) ([]byte, error) {
	if env.Run == nil || env.Metrics == nil {
		return nil, fmt.Errorf("resultstore: refusing to archive incomplete result for %s", env.Key)
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return append(raw, '\n'), nil
}

// decode parses and validates entry bytes (see encode), rejecting
// incomplete or malformed entries loudly.
func decode(raw []byte) (envelope, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return envelope{}, fmt.Errorf("corrupt envelope: %w", err)
	}
	if env.Run == nil || env.Metrics == nil {
		return envelope{}, fmt.Errorf("incomplete envelope for key %q", env.Key)
	}
	return env, nil
}

// Store is a file-backed content-addressed result archive implementing
// engine.Store. All methods are safe for concurrent use — by the
// engine's workers and by cooperating processes sharing the directory.
type Store struct {
	dir     string
	version string

	// Telemetry counters, exported to tokensim's -http expvar endpoint.
	hits   atomic.Uint64
	misses atomic.Uint64
	bytes  atomic.Uint64
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetVersion records the code-version salt stamped into every envelope
// this store writes (callers pass engine.CodeVersion; the store cannot
// import the engine package itself without a cycle through the engine's
// tests). The stamp is what lets GC tell a live entry from one archived
// under an earlier simulator version.
func (s *Store) SetVersion(v string) { s.version = v }

// path maps a key to its object file.
func (s *Store) path(key string) string {
	fan := key
	if len(fan) > 2 {
		fan = key[:2]
	}
	return filepath.Join(s.dir, "objects", fan, key+".json")
}

// Get implements engine.Store: it returns the archived result for key,
// found=false on a clean miss, or an error for a store-level failure
// (unreadable or corrupt entry, key mismatch).
func (s *Store) Get(key string) (*stats.Run, *stats.Snapshot, bool, error) {
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("resultstore: %w", err)
	}
	env, err := decode(raw)
	if err != nil {
		return nil, nil, false, fmt.Errorf("resultstore: entry %s: %w", key, err)
	}
	if env.Key != key {
		return nil, nil, false, fmt.Errorf("resultstore: entry %s carries key %s (misplaced object file)", key, env.Key)
	}
	s.hits.Add(1)
	s.bytes.Add(uint64(len(raw)))
	return env.Run, env.Metrics, true, nil
}

// Put implements engine.Store: it archives one computed result under
// key, atomically (temp file + rename in the final directory). Two
// writers racing on one key write identical content, so last rename
// winning is correct.
func (s *Store) Put(key string, run *stats.Run, metrics *stats.Snapshot) error {
	raw, err := encode(envelope{Key: key, Version: s.version, Run: run, Metrics: metrics})
	if err != nil {
		return err
	}
	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), ".tmp-"+key[:min(8, len(key))]+"-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	s.bytes.Add(uint64(len(raw)))
	return nil
}

// Len counts the archived entries (a directory walk; telemetry and
// tests only, not a hot path).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// Hits reports the archived results this process recalled.
func (s *Store) Hits() uint64 { return s.hits.Load() }

// Misses reports the clean lookup misses this process saw.
func (s *Store) Misses() uint64 { return s.misses.Load() }

// Bytes reports the store bytes this process read plus wrote.
func (s *Store) Bytes() uint64 { return s.bytes.Load() }

// GCStats reports what one GC pass found and (unless it was a dry run)
// reclaimed.
type GCStats struct {
	// Kept counts entries whose embedded version matches.
	Kept int
	// Pruned counts stale entries: version mismatch, missing version
	// stamp (archived before stamping existed — unverifiable, so treated
	// as stale), or unreadable/corrupt files that could never satisfy a
	// Get anyway.
	Pruned int
	// PrunedBytes sums the pruned entries' file sizes.
	PrunedBytes int64
	// Temps counts orphaned temp files (crashed writers) removed.
	Temps int
}

// GC prunes archived envelopes whose embedded version stamp no longer
// matches version — entries computed under an earlier engine.CodeVersion
// can never be recalled again (the salt is mixed into every key), so
// they only accumulate across version bumps. Entries without a stamp and
// entries that fail to parse are pruned too: neither can be proven
// current, and a cache may always recompute. Orphaned temp files from
// crashed writers are swept as well. With dryRun, GC only counts.
func (s *Store) GC(version string, dryRun bool) (GCStats, error) {
	var st GCStats
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			st.Temps++
			if dryRun {
				return nil
			}
			return os.Remove(path)
		}
		if filepath.Ext(path) != ".json" {
			return nil
		}
		stale := false
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			stale = true // unreadable: could never satisfy a Get
		} else {
			var env envelope
			if json.Unmarshal(raw, &env) != nil || env.Version != version {
				stale = true
			}
		}
		if !stale {
			st.Kept++
			return nil
		}
		st.Pruned++
		st.PrunedBytes += int64(len(raw))
		if dryRun {
			return nil
		}
		return os.Remove(path)
	})
	return st, err
}
