package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profStack is one profile sample: its CPU time and its frames, leaf
// first.
type profStack struct {
	cpu    time.Duration
	frames []string
}

// readProfile reads a CPU profile's stacks through `go tool pprof
// -traces`, from the toolchain that built the benchmark.
func readProfile(path string) ([]profStack, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(out)
}

// parseTraces parses pprof's -traces text: a header, then one block per
// stack, each opened by a separator line, whose first line carries the
// sample value before the leaf frame.
func parseTraces(out []byte) ([]profStack, error) {
	var stacks []profStack
	sc := bufio.NewScanner(bytes.NewReader(out))
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			stacks = append(stacks, profStack{})
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		s := &stacks[len(stacks)-1]
		if len(s.frames) == 0 && s.cpu == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			s.cpu = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			s.frames = append(s.frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The last separator closes the last block and opens none.
	if n := len(stacks); n > 0 && stacks[n-1].cpu == 0 {
		stacks = stacks[:n-1]
	}
	return stacks, nil
}

// shareModules are the modules cpu_share reports, named after the
// packages under internal/ plus the Go runtime. Pictor packages outside
// the list fold into "other".
var shareModules = []string{
	"agent", "app", "codec", "core", "engine", "exp", "fleet", "gl", "hw",
	"netsim", "nn", "runtime", "scene", "sim", "stats", "tensor", "trace",
	"vgl", "vnc", "other",
}

// moduleOf names the module a function belongs to, or "" for standard
// library code, which is charged to its nearest attributable caller. The
// runtime's goroutine roots are not attributable: every stack ends in
// one, so charging them would leave no sample unattributed.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "pictor/internal/"):
		rest := fn[len("pictor/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range shareModules {
			if m == rest {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "pictor."):
		return "other"
	case fn == "runtime.main", fn == "runtime.goexit":
		return ""
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// attribute sums each stack's CPU time into the module of its innermost
// attributable frame: the leaf's own module (flat time) when the leaf is
// Pictor or runtime code, else the nearest such caller. Stacks of the
// profiler itself, and stacks of standard-library code only, are
// returned as unattributed.
func attribute(stacks []profStack) (byModule map[string]time.Duration, unattributed, total time.Duration) {
	byModule = map[string]time.Duration{}
	for _, s := range stacks {
		total += s.cpu
		mod := ""
		for _, fn := range s.frames {
			if strings.HasPrefix(fn, "runtime/pprof.") {
				mod = ""
				break
			}
			if mod == "" {
				mod = moduleOf(fn)
			}
		}
		if mod == "" {
			unattributed += s.cpu
			continue
		}
		byModule[mod] += s.cpu
	}
	return byModule, unattributed, total
}
