package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tokencoherence/internal/engine"
)

// parseShardSpec parses the -shard flag's "i/N" syntax: this process
// owns the jobs whose plan index ≡ i (mod N).
func parseShardSpec(spec string) (shard, shards int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &shard, &shards); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/N (e.g. 0/4)", spec)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("-shard %q: shard index must be in [0, %d)", spec, shards)
	}
	return shard, shards, nil
}

// shardHeader is the first line of a shard's output file: the slice
// i/N of the plan the file holds. It is written before any record, so a
// shard whose jobs all failed (or that owns no jobs) still proves it
// ran, and merge can insist on exactly one file per shard 0..N-1.
type shardHeader struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// shardLine is one line of a shard's output: the job's plan-wide index
// plus the exact JSONL record an unsharded sweep would have emitted for
// it. Carrying the index explicitly — instead of relying on line
// position — keeps merge correct when failed jobs leave gaps.
type shardLine struct {
	Index  int             `json:"index"`
	Record json.RawMessage `json:"record"`
}

// shardSink wraps the JSONL sink for sharded runs: a shardHeader line,
// then one shardLine per result whose record field holds the byte-exact
// JSONL line. The merge subcommand strips the wrapper back off, so the
// N shards merged reproduce the single-process output byte for byte.
type shardSink struct {
	w      io.Writer
	header shardHeader
	inner  *engine.JSONLSink
	buf    bytes.Buffer
}

func newShardSink(w io.Writer, shard, shards int) *shardSink {
	s := &shardSink{w: w, header: shardHeader{Shard: shard, Shards: shards}}
	s.inner = &engine.JSONLSink{W: &s.buf}
	return s
}

// Begin implements engine.Sink, writing the shard header.
func (s *shardSink) Begin(total int) error {
	line, err := json.Marshal(s.header)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return s.inner.Begin(total)
}

// Emit implements engine.Sink: render the record through the inner
// JSONL sink, then wrap it with the job's plan index.
func (s *shardSink) Emit(r engine.Result) error {
	s.buf.Reset()
	if err := s.inner.Emit(r); err != nil {
		return err
	}
	rec := bytes.TrimSuffix(s.buf.Bytes(), []byte("\n"))
	line, err := json.Marshal(shardLine{Index: r.Index, Record: json.RawMessage(rec)})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = s.w.Write(line)
	return err
}

// runMerge is the `tokensim merge` subcommand: it k-way merges shard
// output files back into plan order, emitting each record byte-exactly
// as the unsharded run would have. The files must be exactly one per
// shard 0..N-1 of one N: a missing shard, a shard given twice, or files
// from different N are errors, because any of them silently drops or
// duplicates rows.
func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tokensim merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tokensim merge shard0.jsonl shard1.jsonl ...")
		fmt.Fprintln(stderr, "merges the -shard i/N output files of every shard back into plan order on stdout")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge: no shard files given")
	}
	records := map[int]json.RawMessage{}
	shardFile := map[int]string{}
	var first shardHeader
	for _, name := range files {
		h, lines, err := readShardFile(name)
		if err != nil {
			return err
		}
		if first.Shards == 0 {
			first = h
		} else if h.Shards != first.Shards {
			return fmt.Errorf("merge: %s is shard %d/%d but %s is shard %d/%d (files from different -shard splits)",
				name, h.Shard, h.Shards, files[0], first.Shard, first.Shards)
		}
		if prev, dup := shardFile[h.Shard]; dup {
			return fmt.Errorf("merge: shard %d/%d appears in both %s and %s", h.Shard, h.Shards, prev, name)
		}
		shardFile[h.Shard] = name
		for _, line := range lines {
			records[line.Index] = line.Record
		}
	}
	shards := first.Shards
	var missing []string
	for i := 0; i < shards; i++ {
		if _, ok := shardFile[i]; !ok {
			missing = append(missing, fmt.Sprintf("%d/%d", i, shards))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("merge: missing shard(s) %s", strings.Join(missing, ", "))
	}
	indices := make([]int, 0, len(records))
	for i := range records {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	bw := bufio.NewWriter(stdout)
	for _, i := range indices {
		bw.Write(records[i]) //nolint:errcheck // surfaced by Flush
		bw.WriteByte('\n')   //nolint:errcheck // surfaced by Flush
	}
	return bw.Flush()
}

// readShardFile loads one shard output file: its header and records.
// Every record must belong to the header's shard, at most once.
func readShardFile(name string) (shardHeader, []shardLine, error) {
	var h shardHeader
	f, err := os.Open(name)
	if err != nil {
		return h, nil, fmt.Errorf("merge: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []shardLine
	seen := map[int]bool{}
	lineno := 0
	for sc.Scan() {
		lineno++
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		if h.Shards == 0 {
			if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Shards < 1 || h.Shard < 0 || h.Shard >= h.Shards {
				return h, nil, fmt.Errorf("merge: %s:%d: no shard header (is this a -shard output file?)", name, lineno)
			}
			continue
		}
		var line shardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return h, nil, fmt.Errorf("merge: %s:%d: %w", name, lineno, err)
		}
		if line.Record == nil {
			return h, nil, fmt.Errorf("merge: %s:%d: no record field (is this a -shard output file?)", name, lineno)
		}
		if line.Index%h.Shards != h.Shard || seen[line.Index] {
			return h, nil, fmt.Errorf("merge: %s:%d: job %d is not a new job of shard %d/%d", name, lineno, line.Index, h.Shard, h.Shards)
		}
		seen[line.Index] = true
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return h, nil, fmt.Errorf("merge: %s: %w", name, err)
	}
	if h.Shards == 0 {
		return h, nil, fmt.Errorf("merge: %s: empty file, no shard header", name)
	}
	return h, lines, nil
}
