package resultstore

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// sampleSnapshot holds one metric of each kind plus the +Inf a
// transaction-less run reports.
func sampleSnapshot() *stats.Snapshot {
	ms := stats.NewMetricSet()
	ms.Counter(stats.Desc{Name: "reissues", Unit: "count", Help: "transient requests reissued", Fmt: "%.0f"}).Add(4)
	ms.Histogram(stats.Desc{Name: "lat", Unit: "ns", Help: "latency"}).Observe(300 * sim.Nanosecond)
	ms.Derived(stats.Desc{Name: "cycles_per_txn", Unit: "cycles/txn", Help: "runtime", Fmt: "%.2f"}, func() float64 { return 4115 })
	ms.Derived(stats.Desc{Name: "inf", Unit: "x", Help: "h"}, func() float64 { return math.Inf(1) })
	return ms.Snapshot()
}

const key = "ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12"

// parentEntry is sampleSnapshot's entry as written before the snapshot
// became the only record: it also carries the run's raw counters.
const parentEntry = `{"key":"ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12cd34ef56ab12","version":"tokencoherence-sim-v8","run":{"Traffic":{"bytes":[0,0,0,24],"messages":[0,0,0,3]},"Misses":{"Issued":10,"ReissuedOnce":1,"ReissuedMore":0,"Persistent":2},"L1Hits":0,"L2Hits":0,"Accesses":77,"Upgrades":0,"Writeback":0,"Transactions":3,"Elapsed":12345000,"MissLatencySum":900000,"MissLatencyCount":9,"MissLatencies":{"buckets":[0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":1,"sum":100000,"max":100000}},"metrics":{"descs":[{"Name":"reissues","Unit":"count","Help":"transient requests reissued","Fmt":"%.0f","Kind":0},{"Name":"lat","Unit":"ns","Help":"latency","Fmt":"%g","Kind":2},{"Name":"cycles_per_txn","Unit":"cycles/txn","Help":"runtime","Fmt":"%.2f","Kind":3},{"Name":"inf","Unit":"x","Help":"h","Fmt":"%g","Kind":3}],"values":["4","300","4115","+Inf"]}}`

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()

	if _, found, err := st.Get(key); err != nil || found {
		t.Fatalf("empty store: found=%v err=%v", found, err)
	}
	if st.Misses() != 1 {
		t.Errorf("misses = %d, want 1", st.Misses())
	}
	if err := st.Put(key, snap); err != nil {
		t.Fatal(err)
	}
	gotSnap, found, err := st.Get(key)
	if err != nil || !found {
		t.Fatalf("after put: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(snap, gotSnap) {
		t.Errorf("snapshot did not round-trip: %+v vs %+v", snap, gotSnap)
	}
	if v, _ := gotSnap.Value("inf"); !math.IsInf(v, 1) {
		t.Errorf("non-finite snapshot value lost: %v", v)
	}
	if st.Hits() != 1 || st.Bytes() == 0 {
		t.Errorf("hits=%d bytes=%d, want 1 hit and nonzero bytes", st.Hits(), st.Bytes())
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v, want 1", n, err)
	}
}

// TestNoTempFilesSurvive: Put must leave only the renamed object, so a
// store directory never accumulates garbage under normal operation.
func TestNoTempFilesSurvive(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	if err := st.Put(key, snap); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("temp file survived: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutEntryIsShareable: an archived entry is readable by the group
// and by other users, so processes under other accounts can recall it.
func TestPutEntryIsShareable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode().Perm(); mode&0o044 != 0o044 {
		t.Errorf("entry mode = %v, want group- and other-readable", mode)
	}
}

// TestCorruptEntryIsLoud: a torn or edited entry must fail the lookup
// with an error, not silently miss (recomputing would mask corruption)
// and not return garbage.
func TestCorruptEntryIsLoud(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	if err := st.Put(key, snap); err != nil {
		t.Fatal(err)
	}
	path := st.path(key)
	if err := os.WriteFile(path, []byte(`{"key":"`+key+`","run"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(key); err == nil {
		t.Error("want error for truncated entry")
	}
	// A complete entry filed under the wrong key must also be loud.
	other := strings.Repeat("ff", 32)
	if err := st.Put(other, snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.path(other), path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(key); err == nil || !strings.Contains(err.Error(), "misplaced") {
		t.Errorf("want misplaced-object error, got %v", err)
	}
}

// TestConcurrentPutGet exercises the store the way the engine does:
// many workers writing and reading disjoint and shared keys at once.
func TestConcurrentPutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := strings.Repeat("0123456789abcdef"[i%16:i%16+1], 64)
				if err := st.Put(k, snap); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, found, err := st.Get(k); err != nil || !found {
					t.Errorf("get: found=%v err=%v", found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, err := st.Len(); err != nil || n != 16 {
		t.Errorf("Len = %d, %v, want 16", n, err)
	}
}

// TestCrossProcessPutRace simulates two cooperating processes (two Store
// instances over one directory — the same syscall sequence two real
// processes would issue) racing Put on the same key while readers poll:
// every observed state must be complete-or-absent, never torn, and the
// file that survives must carry the full expected content. This is the
// atomic-rename contract shards sharing one store lean on.
func TestCrossProcessPutRace(t *testing.T) {
	dir := t.TempDir()
	stA, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	want, err := encode(envelope{Key: key, Metrics: snap})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for _, st := range []*Store{stA, stB} {
		writers.Add(1)
		go func(st *Store) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				if err := st.Put(key, snap); err != nil {
					t.Errorf("racing put: %v", err)
					return
				}
			}
		}(st)
	}
	// Readers on both handles: a Get mid-race must either miss cleanly
	// (before the first rename lands) or return the complete result —
	// an error here means a torn or partial entry became visible.
	for _, st := range []*Store{stA, stB} {
		readers.Add(1)
		go func(st *Store) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, found, err := st.Get(key)
				if err != nil {
					t.Errorf("racing get: %v", err)
					return
				}
				if found && !reflect.DeepEqual(got, snap) {
					t.Errorf("racing get returned different content: %+v", got)
					return
				}
			}
		}(st)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	raw, err := os.ReadFile(stA.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Errorf("surviving file differs from canonical encoding:\n got %q\nwant %q", raw, want)
	}
	// No temp-file debris from either "process".
	if st, err := stA.GC("", true); err != nil || st.Temps != 0 {
		t.Errorf("temp files survived the race: %+v err=%v", st, err)
	}
}

// TestGC: entries stamped with the current version survive; entries
// stamped with an older version, entries with no stamp, and corrupt
// files are pruned with their byte counts reported, and orphaned temp
// files are swept. A dry run counts the same set but removes nothing.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()

	st.SetVersion("v2")
	live := strings.Repeat("aa", 32)
	if err := st.Put(live, snap); err != nil {
		t.Fatal(err)
	}
	st.SetVersion("v1")
	stale := strings.Repeat("bb", 32)
	if err := st.Put(stale, snap); err != nil {
		t.Fatal(err)
	}
	st.SetVersion("")
	unstamped := strings.Repeat("cc", 32)
	if err := st.Put(unstamped, snap); err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Repeat("dd", 32)
	if err := os.MkdirAll(filepath.Dir(st.path(corrupt)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(corrupt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "objects", "aa", ".tmp-crashed-123")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	dry, err := st.GC("v2", true)
	if err != nil {
		t.Fatal(err)
	}
	if dry.Kept != 1 || dry.Pruned != 3 || dry.Temps != 1 || dry.PrunedBytes == 0 {
		t.Errorf("dry run: %+v, want 1 kept, 3 pruned, 1 temp, nonzero bytes", dry)
	}
	if n, _ := st.Len(); n != 4 {
		t.Errorf("dry run removed entries: Len=%d, want 4", n)
	}

	got, err := st.GC("v2", false)
	if err != nil {
		t.Fatal(err)
	}
	if got != dry {
		t.Errorf("real run found %+v, dry run found %+v", got, dry)
	}
	if n, _ := st.Len(); n != 1 {
		t.Errorf("after GC: Len=%d, want 1", n)
	}
	if _, found, err := st.Get(live); err != nil || !found {
		t.Errorf("live entry lost: found=%v err=%v", found, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file survived GC: %v", err)
	}
}

// TestEncodeDecodeRoundTrip pins the entry codec: decode(encode(x)) ==
// x, and encoding the decoded value reproduces the original bytes
// exactly (racing writers of one key must write identical files).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	raw, err := encode(envelope{Key: key, Version: "v9", Metrics: snap})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Key != key || env.Version != "v9" {
		t.Errorf("key/version did not round-trip: %q %q", env.Key, env.Version)
	}
	if !reflect.DeepEqual(env.Metrics, snap) {
		t.Errorf("snapshot did not round-trip")
	}
	again, err := encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Errorf("re-encoding decoded envelope changed bytes:\n%q\n%q", raw, again)
	}
	if _, err := decode([]byte(`{"key":"x"}`)); err == nil {
		t.Error("want error decoding incomplete envelope")
	}
}

// TestParentFormatEntryStaysReadable: an entry that still carries the
// run object decodes into the identical snapshot, is served by Get, and
// re-encodes without the run.
func TestParentFormatEntryStaysReadable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(key), []byte(parentEntry+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, found, err := st.Get(key)
	if err != nil || !found {
		t.Fatalf("parent-format entry: found=%v err=%v", found, err)
	}
	want := sampleSnapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent-format entry decoded to %+v, want %+v", got, want)
	}
	env, err := decode([]byte(parentEntry))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"run"`) {
		t.Errorf("re-encoded entry still carries the run: %s", raw)
	}
	if st, err := st.GC("tokencoherence-sim-v8", true); err != nil || st.Kept != 1 {
		t.Errorf("GC does not keep the parent-format entry: %+v err=%v", st, err)
	}
}
