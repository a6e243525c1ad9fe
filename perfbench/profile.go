package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the simulator's layers as the CPU profile attributes them:
// each sample's innermost function is charged to its package's layer.
var layers = []string{"kernel", "interconnect", "cache", "protocol", "machine", "observe", "msg", "workload", "runtime", "other"}

func layerOf(function string) string {
	pkg := function
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "tokencoherence/internal/sim":
		return "kernel"
	case "tokencoherence/internal/interconnect", "tokencoherence/internal/topology":
		return "interconnect"
	case "tokencoherence/internal/cache":
		return "cache"
	case "tokencoherence/internal/core", "tokencoherence/internal/snooping",
		"tokencoherence/internal/directory", "tokencoherence/internal/hammer":
		return "protocol"
	case "tokencoherence/internal/machine":
		return "machine"
	case "tokencoherence/internal/stats", "tokencoherence/internal/trace":
		return "observe"
	case "tokencoherence/internal/msg":
		return "msg"
	case "tokencoherence/internal/workload":
		return "workload"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime") {
		return "runtime"
	}
	return "other"
}

// layerShares runs the Go toolchain's pprof over a CPU profile and
// returns each layer's share of the sampled CPU time, in percent. The
// flat time pprof lists per function (inlined calls split out) is
// charged to the function's layer. Samples under runtime.GC are
// dropped: they are the benchmark's own forced collections between
// points, not the simulator's work.
func layerShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms",
		"-symbolize=none", `-ignore=^runtime\.GC$`, profile)
	cmd.Stderr = os.Stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	byLayer := make(map[string]float64)
	var total float64
	inTable := false
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) == 0 {
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof: unexpected line %q", line)
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof: unexpected line %q", line)
		}
		byLayer[layerOf(f[5])] += ms
		total += ms
	}
	if total == 0 {
		return nil, errors.New("pprof: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 100 * byLayer[l] / total
	}
	return shares, nil
}
