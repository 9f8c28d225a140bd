package main

// Per-profile peak-RSS isolation. VmHWM (rss.go) is a process-lifetime
// high-water mark, so a multi-profile drain run in one process reports
// the same peak for every profile after the largest one (full and
// short-2k came out byte-identical). The fix: the parent re-execs
// itself once per profile, so each measurement is taken in a process
// whose lifetime is exactly one profile. Where re-exec is unavailable the parent falls
// back to returning freed heap to the OS and resetting VmHWM between
// profiles (runDrainMode), which is close but still floored at
// whatever the previous profile left resident.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// rssChildEnv marks a re-exec'd single-profile child: it routes
// progress to stderr, leaving stdout to the JSON report the parent
// parses, and must not recurse into forking children of its own.
const rssChildEnv = "DOLLYMP_BENCH_RSS_CHILD"

// profileArtifact derives a per-profile artifact path by inserting the
// profile name before the extension: engine.cpu.pprof + "short" →
// engine.cpu.short.pprof, so per-profile children don't overwrite each
// other's pprof output.
func profileArtifact(path, profile string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + profile + ext
}

// drainProfileIsolated runs one profile in a re-exec'd child and
// returns its measured run. ok=false (with nil error) means the child
// could not be started at all — the caller should fall back to an
// in-process run; a child that started and failed is a real error.
func drainProfileIsolated(opts drainOptions, p drainProfile, progress io.Writer) (drainRun, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return drainRun{}, false, nil
	}
	args := []string{"-drain", opts.area, "-profiles", p.name, "-o", "-"}
	if opts.traceDir != "" {
		args = append(args, "-trace-dir", opts.traceDir)
	}
	if opts.cpuprofile != "" {
		args = append(args, "-cpuprofile", profileArtifact(opts.cpuprofile, p.name))
	}
	if opts.memprofile != "" {
		args = append(args, "-memprofile", profileArtifact(opts.memprofile, p.name))
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), rssChildEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = progress // the child's progress lines, live
	if err := cmd.Start(); err != nil {
		return drainRun{}, false, nil
	}
	if err := cmd.Wait(); err != nil {
		return drainRun{}, true, fmt.Errorf("profile %s subprocess: %w", p.name, err)
	}
	var rep drainReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return drainRun{}, true, fmt.Errorf("profile %s subprocess report: %w", p.name, err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Profile != p.name {
		return drainRun{}, true, fmt.Errorf("profile %s subprocess returned %d runs", p.name, len(rep.Runs))
	}
	return rep.Runs[0], true, nil
}
