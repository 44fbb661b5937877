package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procPath names a /proc file of pid; pid 0 means this process.
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// peakRSSBytes reads VmHWM, the high-water resident set of pid.
func peakRSSBytes(pid int) (int64, error) { return statusBytes(pid, "VmHWM:") }

// rssBytes reads VmRSS, the current resident set of pid.
func rssBytes(pid int) (int64, error) { return statusBytes(pid, "VmRSS:") }

// statusBytes reads a kB field of /proc/<pid>/status, in bytes.
func statusBytes(pid int, field string) (int64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %w", field, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, procPath(pid, "status"))
}

// resetPeakRSS restarts this process's VmHWM from its current RSS (Linux
// clear_refs value 5), so the peak covers only what follows. Kernels that
// refuse it leave the lifetime peak in place, which only overstates.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuMillis reads utime+stime of pid in milliseconds.
func cpuMillis(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line, in milliseconds. The command name (field 2) may
// hold spaces, so fields are counted from its closing parenthesis.
func parseStatCPU(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed utime/stime")
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}
