package main

import (
	"os"
	"strconv"
	"strings"
)

// peakRSSBytes reads the process high-water resident set from
// /proc/self/status (VmHWM). The second return is false where that is
// unavailable (non-Linux, restricted /proc) or unparsable — callers
// must then omit the field from reports rather than record a
// misleading zero.
func peakRSSBytes() (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	return parsePeakRSS(string(b))
}

// parsePeakRSS extracts VmHWM (reported by the kernel in kB) from a
// /proc/self/status document and converts it to bytes.
func parsePeakRSS(status string) (int64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || kb < 0 {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
