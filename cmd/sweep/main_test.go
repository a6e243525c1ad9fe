package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSweepKindsSmoke(t *testing.T) {
	for _, kind := range []string{"bandwidth", "tokens", "mshr"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			var out, errw bytes.Buffer
			args := []string{"-kind", kind, "-workload", "apache",
				"-ops", "120", "-warmup", "120", "-parallel", "2"}
			if err := run(args, &out, &errw); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) < 2 {
				t.Fatalf("sweep emitted %d lines, want header + rows:\n%s", len(lines), out.String())
			}
			if !strings.Contains(lines[0], "cycles_per_txn") {
				t.Fatalf("missing CSV header: %s", lines[0])
			}
		})
	}
}

func TestSweepJSONFormat(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-kind", "tokens", "-workload", "apache",
		"-ops", "130", "-warmup", "130", "-format", "json", "-progress"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"protocol":"tokenb"`) {
		t.Fatalf("unexpected JSONL output:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "points") {
		t.Fatalf("progress not reported on stderr: %q", errw.String())
	}
}

func TestSweepBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-kind", "bogus"}, &out, &errw); err == nil {
		t.Fatal("unknown sweep kind did not error")
	}
	if err := run([]string{"-format", "xml"}, &out, &errw); err == nil {
		t.Fatal("unknown format did not error")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Fatal("unknown flag did not error")
	}
	// Words that are not subcommands must not be ignored: a sweep would
	// otherwise run with default flags.
	for _, sub := range []string{"serve", "work"} {
		if err := run([]string{sub}, &out, &errw); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%q: want unknown-subcommand error, got %v", sub, err)
		}
	}
}

func TestSweepListFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Sweep kinds plus the registry's protocols, topologies, and
	// workloads must all be enumerated.
	for _, want := range []string{
		"sweep kinds:", "bandwidth", "procs", "tokens", "mshr",
		"protocols:", "tokenb", "snooping[ordered-fabric]", "directory", "hammer", "tokend", "tokenm",
		"dir2[scoped]", "regionfilter[scoped]",
		"topologies:", "torus", "tree",
		"workloads:", "apache", "oltp", "specjbb", "barnes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-list output missing %q:\n%s", want, got)
		}
	}
	// -list must not run a sweep: no CSV rows on stdout.
	if strings.Contains(got, "cycles_per_txn") {
		t.Errorf("-list unexpectedly ran a sweep:\n%s", got)
	}
}

func TestSweepListMetricsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list-metrics", "-kind", "bandwidth"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"cycles_per_txn", "bytes_per_miss", "reissues", "persistent_activations", "ns", "count"} {
		if !strings.Contains(got, want) {
			t.Errorf("-list-metrics output missing %q:\n%s", want, got)
		}
	}
	// -list-metrics must not run the sweep: no CSV data rows.
	if strings.Contains(got, "tokenb,") {
		t.Errorf("-list-metrics unexpectedly ran the sweep:\n%s", got)
	}
}

func TestSweepColumnsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-kind", "tokens", "-workload", "apache",
		"-ops", "130", "-warmup", "130",
		"-columns", "protocol, tokens_per_block ,misses,token_transfers"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "protocol,tokens_per_block,misses,token_transfers" {
		t.Fatalf("-columns header = %q", lines[0])
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "tokenb,16,") {
		t.Fatalf("-columns rows wrong:\n%s", out.String())
	}
}

func TestSweepColumnsRejectsJSONFormat(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-kind", "tokens", "-format", "json", "-columns", "protocol"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-columns") {
		t.Fatalf("-columns with -format json: err = %v, want rejection", err)
	}
}

func TestSweepColumnsRejectsUnknownNames(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-kind", "tokens", "-columns", "protocol,cycles_per_tx"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), `cycles_per_tx`) {
		t.Fatalf("typoed column: err = %v, want unknown-column rejection", err)
	}
	if err := run([]string{"-kind", "tokens", "-columns", " , "}, &out, &errw); err == nil {
		t.Fatal("all-blank -columns spec not rejected")
	}
	// Mutation tags are valid column names.
	if err := run([]string{"-kind", "tokens", "-ops", "120", "-warmup", "120",
		"-workload", "apache", "-columns", "tokens_per_block,misses"}, &out, &errw); err != nil {
		t.Fatalf("tag column rejected: %v", err)
	}
	// The validation schema unions over the sweep's protocols: the
	// bandwidth sweep mixes tokenb/directory/hammer, so each protocol's
	// own metric is selectable even though no single point has all three.
	out.Reset()
	if err := run([]string{"-kind", "bandwidth", "-ops", "120", "-warmup", "120",
		"-workload", "apache", "-columns", "protocol,reissues,dir_home_requests,hammer_home_requests"}, &out, &errw); err != nil {
		t.Fatalf("cross-protocol columns rejected: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); !strings.Contains(out.String(), "directory,") || len(lines) < 4 {
		t.Fatalf("cross-protocol column output wrong:\n%s", out.String())
	}
}

func TestSweepListMetricsUnionsProtocols(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list-metrics", "-kind", "bandwidth"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reissues", "dir_home_requests", "hammer_home_requests"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("unioned -list-metrics missing %q:\n%s", want, out.String())
		}
	}
}

func TestSweepUnknownKindListsRegistered(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-kind", "bogus"}, &out, &errw)
	if err == nil {
		t.Fatal("unknown sweep kind did not error")
	}
	if !strings.Contains(err.Error(), "registered: bandwidth, procs, tokens, mshr") {
		t.Errorf("error does not list registered kinds: %v", err)
	}
}
