// Package sysmem reports process memory high-water marks. Out-of-core runs
// exist to bound resident memory, so ampcrun's summary must report what the
// OS saw, not only what the Go heap retained.
package sysmem

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
)

// PeakRSSMB returns the process's peak resident set size in MiB: VmHWM
// from /proc/self/status where the kernel provides it (Linux — it includes
// every page actually touched, heap or not), falling back to the Go runtime's
// HeapSys+StackSys high-water proxy elsewhere. The fallback undercounts
// non-heap memory; the value is still monotone and useful for orientation
// on other platforms.
func PeakRSSMB() float64 {
	if kb, ok := procVmHWMKB(); ok {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys+ms.StackSys) / (1 << 20)
}

// procVmHWMKB parses the VmHWM line of /proc/self/status. Absent file or
// field (non-Linux, masked procfs) reports ok=false rather than an error:
// there is always the runtime fallback.
func procVmHWMKB() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0, false
		}
		return kb, true
	}
	return 0, false
}
