package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListConfig(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list-config"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "tokens per block", "link bandwidth"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("config output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCustomPointSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-topo", "torus", "-workload", "oltp",
		"-procs", "4", "-ops", "200", "-warmup", "200", "-seeds", "1,2"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "tokenb/torus/oltp seed=1") || !strings.Contains(got, "seed=2") {
		t.Fatalf("missing per-seed sections:\n%s", got)
	}
	if !strings.Contains(got, "avg miss latency") {
		t.Fatalf("missing statistics block:\n%s", got)
	}
}

// TestScalingMaxProcsFlag drives the scaling experiment through the new
// -maxprocs axis: the sweep must stop at the requested size and carry
// the snooping-on-tree column.
func TestScalingMaxProcsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-experiment", "scaling", "-maxprocs", "8", "-ops", "60", "-warmup", "60"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "snoop B/miss") {
		t.Errorf("scaling output missing the snooping-on-tree column:\n%s", got)
	}
	if !strings.Contains(got, "\n     8 ") {
		t.Errorf("scaling output missing the 8-processor row:\n%s", got)
	}
	if strings.Contains(got, "\n    16 ") {
		t.Errorf("-maxprocs 8 sweep ran past 8 processors:\n%s", got)
	}
}

// TestColdWarmupFlag: a negative -warmup requests an explicitly cold
// cache (zero warmup operations), which a plain 0 cannot express (it
// means "default to 2x ops").
func TestColdWarmupFlag(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-topo", "torus", "-workload", "oltp",
		"-procs", "4", "-ops", "200", "-warmup", "-1", "-seeds", "1"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "avg miss latency") {
		t.Fatalf("cold run produced no statistics:\n%s", out.String())
	}
}

func TestBadFlagValues(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-seeds", "nope"}, &out, &errw); err == nil {
		t.Fatal("bad seed list did not error")
	}
	if err := run([]string{"-experiment", "no-such-experiment"}, &out, &errw); err == nil {
		t.Fatal("unknown experiment did not error")
	}
	if err := run([]string{"-protocol", "bogus", "-ops", "50", "-procs", "4"}, &out, &errw); err == nil {
		t.Fatal("unknown protocol did not error")
	}
	if err := run([]string{"-not-a-flag"}, &out, &errw); err == nil {
		t.Fatal("unknown flag did not error")
	}
	// The custom point's flags would be silently ignored by an
	// experiment, so combining them is an error.
	for _, extra := range [][]string{
		{"-unlimited"},
		{"-perfect-dir"},
		{"-protocol", "hammer"},
		{"-topo", "tree"},
	} {
		err := run(append([]string{"-experiment", "table2"}, extra...), &out, &errw)
		if err == nil || !strings.Contains(err.Error(), extra[0]) || !strings.Contains(err.Error(), "-experiment") {
			t.Errorf("-experiment table2 %v: err = %v, want rejection", extra, err)
		}
	}
}

func TestListComponents(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"protocols:", "tokenb", "snooping[ordered-fabric]", "directory", "hammer", "tokend", "tokenm",
		"dir2[scoped]", "regionfilter[scoped]",
		"policies:",
		"topologies:", "torus", "tree",
		"workloads:", "apache", "oltp", "specjbb", "barnes",
		"experiments:", "table2", "fig4a", "fig4b", "fig5a", "fig5b", "scaling", "bandwidth", "procs", "tokens", "mshr",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-list output missing %q:\n%s", want, got)
		}
	}
	// -list must not run a simulation.
	if strings.Contains(got, "avg miss latency") {
		t.Errorf("-list unexpectedly simulated:\n%s", got)
	}
}

func TestListMetricsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list-metrics", "-protocol", "directory"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"cycles_per_txn", "avg_miss_ns", "dir_home_requests"} {
		if !strings.Contains(got, want) {
			t.Errorf("-list-metrics output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "avg miss latency") {
		t.Errorf("-list-metrics unexpectedly simulated:\n%s", got)
	}
	// The schema query goes through the registry: unknown names fail.
	if err := run([]string{"-list-metrics", "-protocol", "bogus"}, &out, &errw); err == nil {
		t.Error("-list-metrics with unknown protocol did not error")
	}
}

func TestColumnsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-workload", "oltp",
		"-procs", "4", "-ops", "200", "-warmup", "200", "-seeds", "2,5",
		"-columns", "seed,cycles_per_txn,misses,reissues"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || lines[0] != "seed,cycles_per_txn,misses,reissues" {
		t.Fatalf("-columns output wrong:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[1], "2,") || !strings.HasPrefix(lines[2], "5,") {
		t.Fatalf("-columns rows not in seed order:\n%s", out.String())
	}
	if strings.Contains(out.String(), "avg miss latency") {
		t.Errorf("-columns also printed the statistics block:\n%s", out.String())
	}
}

func TestColumnsFlagConflictsAndTypos(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-protocol", "tokenb", "-format", "json", "-columns", "seed"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-columns") {
		t.Fatalf("-columns with -format json: err = %v, want rejection", err)
	}
	err = run([]string{"-protocol", "tokenb", "-columns", "seed,cycles_per_tx"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "cycles_per_tx") {
		t.Fatalf("typoed column: err = %v, want unknown-column rejection", err)
	}
	if err := run([]string{"-protocol", "tokenb", "-columns", ","}, &out, &errw); err == nil {
		t.Fatal("all-blank -columns spec not rejected")
	}
}

func TestUnknownNamesReportRegistered(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-protocol", "bogus", "-ops", "50", "-procs", "4"}, &out, &errw)
	if err == nil {
		t.Fatal("unknown protocol did not error")
	}
	if !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "tokenb") {
		t.Errorf("error does not list registered protocols: %v", err)
	}
	err = run([]string{"-topo", "ring", "-ops", "50", "-procs", "4"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), `unknown topology "ring"`) {
		t.Errorf("unknown topology: %v", err)
	}
	// Snooping needs the ordered tree; pointing it at the torus must
	// fail fast with the valid pairs.
	err = run([]string{"-protocol", "snooping", "-topo", "torus", "-ops", "50", "-procs", "4"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "valid pairs: snooping/tree") {
		t.Errorf("snooping/torus: %v", err)
	}
}
