package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick measures how fast the host is while a run is going on,
// so that host-time metrics from different minutes can be compared.
//
// The sizing container is a 2-vCPU microVM on a shared host whose speed
// for this simulator moves by 20-50 % over minutes and, for stretches of
// minutes, by a factor of two (README "Host speed"): neighbours take
// cache, memory bandwidth and cycles. No statistic over the reps of one
// 15 s run removes that, because the whole run sits inside one such
// stretch. What does follow the stretches is the latency of dependent
// loads that miss the caches, which is also what a pointer-heavy
// simulator spends its time on. So the benchmark times a fixed walk of
// dependent loads through a 16 MiB table before and after every rep,
// and divides the run's host times by how much slower than nominal the
// walk was.
//
// The walk is part of the benchmark's definition: changing the table,
// the step count or the nominal time changes every ops_per_sec and
// setup_s, and is a new baseline.
const (
	yardstickWords = 4 << 20 // uint32 entries: 16 MiB, far more than the caches and the TLB hold
	yardstickMiB   = yardstickWords * 4 >> 20
	yardstickSteps = 200_000 // per sample: about 30 ms
	// yardstickNominalNs is the walk's ns per step on the sizing
	// container in an ordinary minute. It only fixes the scale of the
	// corrected numbers: a host this fast has slowdown 1.
	yardstickNominalNs = 160.0
)

type yardstick struct {
	mem     []byte   // the mapping
	table   []uint32 // the same bytes
	at      uint32
	samples []float64 // ns per step
}

// newYardstick builds the table: entry i holds the successor of i in a
// full-period linear congruential sequence over the table's indices, so
// following it from anywhere visits every entry once before repeating,
// in an order no prefetcher guesses.
//
// The table is mapped outside the Go heap. On the heap it would be 16 MiB
// of live data to the garbage collector, which would then let every
// workload's garbage grow 16 MiB further between collections: panel_sweep
// peaked at 42 MiB that way, against 12 MiB without the table.
func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, yardstickWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick table: %w", err)
	}
	y := &yardstick{mem: mem, table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), yardstickWords)}
	for i := range y.table {
		y.table[i] = (uint32(i)*1664525 + 1013904223) % yardstickWords
	}
	return y, nil
}

// close unmaps the table.
func (y *yardstick) close() {
	if err := syscall.Munmap(y.mem); err != nil {
		panic(fmt.Sprintf("benchmark: yardstick table: %v", err)) // only a bug unmaps twice
	}
	y.mem, y.table = nil, nil
}

// sample times one walk and keeps its ns per step. A nil yardstick
// measures nothing.
func (y *yardstick) sample() {
	if y == nil {
		return
	}
	i := y.at
	t0 := time.Now()
	for k := 0; k < yardstickSteps; k++ {
		i = y.table[i]
	}
	y.samples = append(y.samples, float64(time.Since(t0).Nanoseconds())/yardstickSteps)
	y.at = i
}

// slowdown is how many times slower than nominal the host was over the
// run: the median sample over the nominal time.
func (y *yardstick) slowdown() float64 {
	return median(y.samples) / yardstickNominalNs
}
