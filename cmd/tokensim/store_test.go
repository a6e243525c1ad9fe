package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/stats"
)

// TestTokensimStoreRecall: a custom point archived with -store and run
// again with -resume must print identical statistics, with the second
// run's seeds recalled from the archive instead of re-simulated.
func TestTokensimStoreRecall(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-protocol", "tokenb", "-workload", "apache",
		"-procs", "4", "-ops", "120", "-warmup", "120", "-seeds", "1,2", "-store", dir}
	var out1, out2, errw bytes.Buffer
	if err := run(args, &out1, &errw); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("store holds %d entries (err %v), want one per seed", len(entries), err)
	}
	if err := run(append(args, "-resume"), &out2, &errw); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("recalled statistics differ from computed:\n%s\nvs\n%s", out1.String(), out2.String())
	}
}

// TestResumeFromLegacyStore: testdata/legacystore holds this point's two
// seeds as archived when an entry still carried the run's raw counters
// beside its snapshot. Resuming from it must recall both seeds (no
// simulation, so no -trace file) and print the JSONL rows and the
// statistics block byte-identically to a fresh computation.
func TestResumeFromLegacyStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacystore"))); err != nil {
		t.Fatal(err)
	}
	point := []string{"-protocol", "tokenb", "-workload", "oltp",
		"-procs", "4", "-ops", "120", "-warmup", "120", "-seeds", "1,2"}
	for _, format := range [][]string{{"-format", "json"}, nil} {
		args := append(append([]string{}, point...), format...)
		var fresh, resumed, errw bytes.Buffer
		if err := run(args, &fresh, &errw); err != nil {
			t.Fatal(err)
		}
		traces := t.TempDir()
		if err := run(append(args, "-store", dir, "-resume", "-trace", traces), &resumed, &errw); err != nil {
			t.Fatal(err)
		}
		if fresh.String() != resumed.String() {
			t.Errorf("%v: resumed output differs from computed:\n%s\nvs\n%s", format, resumed.String(), fresh.String())
		}
		if files, _ := os.ReadDir(traces); len(files) != 0 {
			t.Errorf("%v: resumed run simulated %d points, want both recalled", format, len(files))
		}
	}
}

// TestExperimentStoreResume: a paper table archived with -store and
// printed again with -resume must be byte-identical, with every point
// recalled. A recalled point runs no simulation, so it writes no -trace
// file: an empty trace directory proves nothing was recomputed.
func TestExperimentStoreResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-experiment", "table2", "-ops", "100", "-warmup", "100", "-seeds", "1,2", "-store", dir}
	var out1, out2, errw bytes.Buffer
	if err := run(args, &out1, &errw); err != nil {
		t.Fatal(err)
	}
	traces := t.TempDir()
	if err := run(append(args, "-resume", "-trace", traces), &out2, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1.String(), "Table 2") || out1.String() != out2.String() {
		t.Errorf("resumed table differs from computed:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if files, _ := os.ReadDir(traces); len(files) != 0 {
		t.Errorf("resumed run simulated %d points, want every point recalled", len(files))
	}
}

// sweepArgs are a small, fast plan shared by the store tests.
func sweepArgs(extra ...string) []string {
	return append([]string{"-experiment", "tokens", "-workload", "apache",
		"-ops", "120", "-warmup", "120", "-parallel", "2"}, extra...)
}

// TestSweepStoreResumeByteIdentity is the command-level resume
// guarantee: a sweep archived with -store and re-run with -resume must
// emit byte-identical output without recomputing anything (the second
// run's rows all come from the archive).
func TestSweepStoreResumeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	var out1, out2, errw bytes.Buffer
	if err := run(sweepArgs("-store", dir), &out1, &errw); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("store not populated: %v entries, err %v", len(entries), err)
	}
	if err := run(sweepArgs("-store", dir, "-resume"), &out2, &errw); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("resumed output differs from computed output:\n%s\nvs\n%s", out1.String(), out2.String())
	}
}

// TestSweepShardMergeEquivalence runs the same plan unsharded and as
// two shards, then merges the shard files: the merged stream must be
// byte-identical to the single-process JSONL output.
func TestSweepShardMergeEquivalence(t *testing.T) {
	var whole, errw bytes.Buffer
	if err := run(sweepArgs("-format", "json"), &whole, &errw); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make([]string, 2)
	for shard := 0; shard < 2; shard++ {
		var out bytes.Buffer
		spec := []string{"0/2", "1/2"}[shard]
		if err := run(sweepArgs("-format", "json", "-shard", spec), &out, &errw); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), `"index":`) {
			t.Fatalf("shard %d output is not index-wrapped:\n%s", shard, out.String())
		}
		files[shard] = filepath.Join(dir, spec[:1]+".jsonl")
		if err := os.WriteFile(files[shard], out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var merged bytes.Buffer
	// Shard files in reverse order: merge must restore plan order itself.
	if err := run([]string{"merge", files[1], files[0]}, &merged, &errw); err != nil {
		t.Fatal(err)
	}
	if merged.String() != whole.String() {
		t.Errorf("merged shard output differs from single-process run:\n%s\nvs\n%s",
			merged.String(), whole.String())
	}
}

// TestSweepMergeRejectsOverlap: feeding merge the same shard file twice
// means two processes claimed the same jobs — a misconfiguration that
// must fail loudly instead of silently duplicating rows.
func TestSweepMergeRejectsOverlap(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(sweepArgs("-format", "json", "-shard", "0/2"), &out, &errw); err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(t.TempDir(), "s0.jsonl")
	if err := os.WriteFile(f, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	err := run([]string{"merge", f, f}, &merged, &errw)
	if err == nil || !strings.Contains(err.Error(), "appears in both") {
		t.Errorf("want overlapping-shard error, got %v", err)
	}
}

// TestSweepMergeRejectsIncompleteShardSet: merge must refuse a shard
// set that does not cover every shard 0..N-1 of one N, instead of
// emitting a plausible-looking output with rows silently missing.
func TestSweepMergeRejectsIncompleteShardSet(t *testing.T) {
	dir := t.TempDir()
	shardFile := func(spec string) string {
		var out, errw bytes.Buffer
		if err := run(sweepArgs("-format", "json", "-shard", spec), &out, &errw); err != nil {
			t.Fatal(err)
		}
		f := filepath.Join(dir, strings.ReplaceAll(spec, "/", "of")+".jsonl")
		if err := os.WriteFile(f, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}
	s0of2, s1of3 := shardFile("0/2"), shardFile("1/3")

	var merged, errw bytes.Buffer
	if err := run([]string{"merge", s0of2}, &merged, &errw); err == nil || !strings.Contains(err.Error(), "missing shard(s) 1/2") {
		t.Errorf("merge of shard 0/2 alone: want missing-shard error, got %v", err)
	}
	if err := run([]string{"merge", s0of2, s1of3}, &merged, &errw); err == nil || !strings.Contains(err.Error(), "different -shard splits") {
		t.Errorf("merge of 0/2 with 1/3: want mixed-N error, got %v", err)
	}
	if merged.Len() != 0 {
		t.Errorf("rejected merges wrote output:\n%s", merged.String())
	}
}

// TestSweepStoreFlagValidation pins the flag interactions.
func TestSweepStoreFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-resume"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Errorf("-resume without -store: got %v", err)
	}
	if err := run([]string{"-shard", "0/2"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "json") {
		t.Errorf("-shard with default CSV format: got %v", err)
	}
	for _, spec := range []string{"2/2", "-1/2", "x/y", "3"} {
		if err := run([]string{"-shard", spec, "-format", "json"}, &out, &errw); err == nil {
			t.Errorf("-shard %s: want error", spec)
		}
	}
	if err := run([]string{"merge"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "no shard files") {
		t.Errorf("merge without files: got %v", err)
	}
}

// TestShardWarningOnOversizedSpec: splitting a plan more ways than it
// has points used to silently emit empty shard files; now it warns.
func TestShardWarningOnOversizedSpec(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-experiment", "tokens", "-ops", "40", "-warmup", "-1", "-format", "json", "-shard", "0/100"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "will be empty") {
		t.Errorf("no empty-shard warning on stderr: %q", errBuf.String())
	}
	// A right-sized spec stays quiet.
	errBuf.Reset()
	if err := run([]string{"-experiment", "tokens", "-ops", "40", "-warmup", "-1", "-format", "json", "-shard", "0/2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errBuf.String(), "will be empty") {
		t.Errorf("spurious empty-shard warning: %q", errBuf.String())
	}
}

// TestStoreGCVerb: `tokensim store gc` prunes entries whose version stamp
// is not this binary's engine.CodeVersion, keeps current ones, and the
// dry run reports the same counts without removing anything.
func TestStoreGCVerb(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.NewMetricSet().Snapshot()
	st.SetVersion(engine.CodeVersion)
	if err := st.Put(strings.Repeat("aa", 32), snap); err != nil {
		t.Fatal(err)
	}
	st.SetVersion("antique-version")
	if err := st.Put(strings.Repeat("bb", 32), snap); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"store", "gc", "-store", dir, "-dry-run"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kept 1") || !strings.Contains(out.String(), "would prune 1 stale") {
		t.Errorf("dry-run output: %q", out.String())
	}
	if n, _ := st.Len(); n != 2 {
		t.Fatalf("dry run removed entries: Len=%d, want 2", n)
	}

	out.Reset()
	if err := run([]string{"store", "gc", "-store", dir}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pruned 1 stale") {
		t.Errorf("gc output: %q", out.String())
	}
	if n, _ := st.Len(); n != 1 {
		t.Errorf("after gc: Len=%d, want 1", n)
	}

	if err := run([]string{"store", "frobnicate"}, &out, &bytes.Buffer{}); err == nil {
		t.Error("want error for unknown store verb")
	}
	if err := run([]string{"store", "gc"}, &out, &bytes.Buffer{}); err == nil {
		t.Error("want error for store gc without -store")
	}
}
