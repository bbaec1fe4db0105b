package stat

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// CPUTime returns the user+system CPU time this process has consumed.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// StolenTime returns the CPU time the hypervisor has given to other
// guests while this one had work to run, summed over all processors since
// boot (the steal column of /proc/stat, in ticks of 10 ms). 0 where the
// file cannot be read or the machine is not virtual.
func StolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var label string
	var f [8]int64 // user nice system idle iowait irq softirq steal
	if _, err := fmt.Sscan(string(data), &label, &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		return 0
	}
	return time.Duration(f[7]) * 10 * time.Millisecond
}
