package main

import (
	"crypto/sha256"
	"syscall"
	"time"
)

// The hosts this benchmark runs on share their caches and memory with
// other machines' work. Back-to-back runs of the same pass on the same
// input drift by 10-20% over minutes, and a closed loop's throughput moves
// by as much from one second to the next. A fixed probe run just before
// each timed unit (a pass, a set-up, an open-loop sub-phase, a closed-loop
// window) tracks much of that drift, so each unit's times are quoted at the
// probe's nominal speed and the metrics are medians over units; the raw
// values are kept beside them (result.raw). The probe is the benchmark's
// own code, so no change to the programs under test moves it.

// probeNominal is the probe's median on the calibration host: 2 vCPUs of
// an "Intel(R) Xeon(R) Processor" at 2.0 GHz, Linux 6.18, Go 1.24.
const probeNominal = 35 * time.Millisecond

const (
	probeBytes = 32 << 20 // fresh memory faulted in, and read at random
	probeCache = 2 << 20  // the part read again, small enough to stay cached
)

var probeSink byte

// slowdown times the probe once and returns how much slower than nominal
// the host is right now: a raw time divided by it is quoted at nominal
// speed. The probe faults in fresh anonymous memory page by page, reads it
// at pseudo-random offsets, reads a cache-sized part of it at random, and
// hashes a few MiB of it — page faults, memory, cache and compute, the
// resources the measured programs spend.
func slowdown() (float64, error) {
	t0 := time.Now()
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = byte(i >> 12)
	}
	x, s := uint32(1), byte(0)
	for i := 0; i < 500_000; i++ {
		x = x*1664525 + 1013904223
		s += b[int(x>>7)%probeBytes]
	}
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		s += b[int(x>>11)%probeCache]
	}
	sum := sha256.Sum256(b[:4<<20])
	d := time.Since(t0)
	probeSink += s + sum[0]
	return float64(d) / float64(probeNominal), syscall.Munmap(b)
}
