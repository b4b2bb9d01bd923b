package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The host probe times two fixed kernels that call no repository code: random
// reads over a buffer four times the size of a 32 MB last-level cache, and a
// dependent multiply-xorshift chain that stays in registers. On a shared host
// the first moves with memory contention from other tenants and the second
// does not, so a run whose probes read high landed in a contention episode.
// The probe runs in a child process, so its buffer never counts towards the
// peak RSS of a workload that runs in this process.

const (
	probeWords = 16 << 20 // 128 MB of uint64
	probeReads = 4 << 20
	probeALU   = 40 << 20
	probeReps  = 3
)

// hostProbeChild is the child's whole job: print the median memory and ALU
// kernel times in milliseconds.
func hostProbeChild() {
	buf := make([]uint64, probeWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var sink uint64
	mem := make([]float64, probeReps)
	alu := make([]float64, probeReps)
	for r := 0; r < probeReps; r++ {
		t0 := now()
		x := uint64(0x9e3779b97f4a7c15) + uint64(r)
		for i := 0; i < probeReads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sink += buf[x&(probeWords-1)]
		}
		mem[r] = float64(now()-t0) / 1e6
		t0 = now()
		y := uint64(r) + 1
		for i := 0; i < probeALU; i++ {
			y = y*0x2545f4914f6cdd1d + 1
			y ^= y >> 29
		}
		sink += y
		alu[r] = float64(now()-t0) / 1e6
	}
	fmt.Printf("%g %g %d\n", median(mem), median(alu), sink&1)
}

// hostProbe runs the probe child and returns its memory and ALU times.
func hostProbe() (memMs, aluMs float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, fmt.Errorf("host probe: %w", err)
	}
	out, err := exec.Command(self, "-host-probe").Output()
	if err != nil {
		return 0, 0, fmt.Errorf("host probe: %w", err)
	}
	var sink int
	if _, err := fmt.Sscanf(string(out), "%g %g %d", &memMs, &aluMs, &sink); err != nil {
		return 0, 0, fmt.Errorf("host probe output %q: %w", out, err)
	}
	return memMs, aluMs, nil
}

// peakRSSMB reads a process's VmHWM (peak resident set size) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in %s", path)
}
