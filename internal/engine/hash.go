package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
)

// CodeVersion is the simulator-behavior salt mixed into every point
// hash. Any change that can alter a point's results — protocol logic,
// timing parameters, workload generation, the event kernel — MUST bump
// this constant, or result stores recorded before the change would
// satisfy sweeps run after it. Purely observational changes (tracing,
// telemetry, output formatting of values already captured) do not
// require a bump. The engine's determinism suite is what makes this
// contract testable: a given (point, CodeVersion) pair names exactly one
// result.
const CodeVersion = "tokencoherence-sim-v9"

// ErrUncacheable marks a point with no stable content identity: it
// carries a NewGen closure and no GenID naming what that generator
// computes. The engine runs such points normally but
// never consults or fills the result store for them.
var ErrUncacheable = errors.New("engine: point carries NewGen without a GenID and has no content identity")

// PointKey returns the point's content hash: a hex SHA-256 over the
// fully-resolved simulation inputs — protocol, resolved topology,
// workload identity and parameters, the effective machine configuration
// after every mutation, operation counts, warmup, and seed — salted
// with CodeVersion. Two points with equal keys compute identical
// results, so the key is the result store's address.
//
// Execution-only knobs are deliberately excluded, exactly as the CSV
// schema excludes them: Islands (byte-identical results at any count),
// the flight-recorder configuration, and the debug-log destination
// change how a point runs or is observed, never what it measures.
//
// The key is invariant under registry registration order (components
// enter the hash by resolved name, not table position) and under
// engine parallelism (it is a pure function of the point). Points whose
// generator is an opaque closure return ErrUncacheable unless they name
// their generator with GenID.
func PointKey(pt Point) (string, error) {
	return pointKey(pt, CodeVersion)
}

// pointKey is PointKey with an explicit salt, so tests can prove a salt
// change invalidates every key.
func pointKey(pt Point, salt string) (string, error) {
	pt = pt.withDefaults()
	comps, err := pt.resolve()
	if err != nil {
		return "", err
	}

	h := sha256.New()
	fmt.Fprintf(h, "salt=%s\n", salt)
	fmt.Fprintf(h, "protocol=%s\n", comps.proto.Name)
	fmt.Fprintf(h, "topology=%s\n", comps.topo.Name)
	switch {
	case pt.NewGen != nil:
		if pt.GenID == "" {
			return "", ErrUncacheable
		}
		fmt.Fprintf(h, "gen=%s\n", pt.GenID)
	default:
		fmt.Fprintf(h, "workload=%s\n", comps.wl.Name)
		if comps.wl.Params != nil {
			canonicalEncode(h, "params", reflect.ValueOf(*comps.wl.Params))
		}
	}
	fmt.Fprintf(h, "ops=%d\nwarmup=%d\nseed=%d\n", pt.Ops, pt.Warmup, pt.Seed)

	// The effective configuration is assembled exactly as buildMachine
	// assembles it (shared helper), then stripped of the excluded
	// execution/observability knobs before encoding.
	cfg := pt.effectiveConfig()
	cfg.Islands = 0
	cfg.RecorderSize = 0
	cfg.StarvationDeadline = 0
	cfg.DebugLog = nil
	canonicalEncode(h, "config", reflect.ValueOf(cfg))

	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalEncode writes a deterministic text rendering of v: struct
// fields in declaration order keyed by path, map entries sorted by key,
// floats in shortest-round-trip form. Functions, channels, and
// interfaces (closures, io.Writers — behavior, not content) are
// skipped, so config fields like DebugLog never poison a hash. New
// config fields automatically join the hash; renaming or moving one
// changes keys, which errs toward recomputing — the safe direction.
func canonicalEncode(w io.Writer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		return
	case reflect.Ptr:
		if v.IsNil() {
			fmt.Fprintf(w, "%s=nil\n", path)
			return
		}
		canonicalEncode(w, path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			canonicalEncode(w, path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			ks := fmt.Sprintf("%v", k.Interface())
			keys = append(keys, ks)
			byKey[ks] = v.MapIndex(k)
		}
		sort.Strings(keys)
		for _, ks := range keys {
			canonicalEncode(w, path+"["+ks+"]", byKey[ks])
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			canonicalEncode(w, path+"["+strconv.Itoa(i)+"]", v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t\n", path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%s=%d\n", path, v.Uint())
	case reflect.String:
		fmt.Fprintf(w, "%s=%q\n", path, v.String())
	default:
		fmt.Fprintf(w, "%s=%v\n", path, v.Interface())
	}
}
