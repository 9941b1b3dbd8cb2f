package main

import (
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared virtual machines. The speed
// of a vCPU drifts by up to a third within a minute as neighbours load
// the machine, and in busy hours the hypervisor also takes a vCPU away
// for tens of milliseconds at a time (steal time). Every time the
// benchmark reports is therefore normalized by a calibration measured
// next to it: a fixed unit of allocation-heavy work in the benchmark's
// own code (map inserts of formatted keys and a binary tree), whose cost
// does not depend on the code under test. A duration d measured while
// one calibration unit took c is reported as d * calRef / c, the time d
// would have taken on a host where the unit takes calRef. On an idle
// 2-CPU Xeon (go1.24) the unit takes about calRef.
//
// The corpus workloads time each analysis in process CPU time, and
// calibration units in thread CPU time, which leave steal time out: wall
// time would charge an analysis for the moments its vCPU was taken away.
const (
	calRef   = time.Millisecond
	calUnits = 3                      // units per calibration; their median is used
	calEvery = 50 * time.Millisecond  // longest gap between calibrations in a corpus sweep
	calSpan  = 250 * time.Millisecond // a corpus analysis uses the calibrations of the latest calSpan
)

type calNode struct {
	l, r *calNode
	v    int
}

func calTree(d int) *calNode {
	if d == 0 {
		return &calNode{v: 1}
	}
	return &calNode{calTree(d - 1), calTree(d - 1), d}
}

func (n *calNode) sum() int {
	if n.l == nil {
		return n.v
	}
	return n.v + n.l.sum() + n.r.sum()
}

var calSink int

// cpuClock reads a Linux CPU-time clock.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clock ids are valid on Linux
	}
	return time.Duration(ts.Nano())
}

// threadCPU returns the CPU time of the calling thread
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration { return cpuClock(3) }

// processCPU returns the CPU time of all threads of the process, the
// collector's included (CLOCK_PROCESS_CPUTIME_ID).
func processCPU() time.Duration { return cpuClock(2) }

// calUnit runs one calibration unit and returns its duration on clock.
func calUnit(clock func() time.Duration) time.Duration {
	t0 := clock()
	m := make(map[string]int)
	for i := 0; i < 2000; i++ {
		m[strconv.Itoa(i)+"."+strconv.Itoa(i*7)] = i
	}
	calSink += calTree(12).sum() + len(m)
	return clock() - t0
}

func wallClock() time.Duration { return time.Since(processStart) }

// calibrate runs calUnits units on each of par goroutines, each locked
// to its thread, and returns the median unit time: in the thread's CPU
// time, or in wall time if wall is set.
func calibrate(par int, wall bool) time.Duration {
	clock := threadCPU
	if wall {
		clock = wallClock
	}
	times := make([]float64, par*calUnits)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for k := 0; k < calUnits; k++ {
				times[g*calUnits+k] = float64(calUnit(clock))
			}
		}(g)
	}
	wg.Wait()
	return time.Duration(median(times))
}

// calibrateFor keeps par goroutines running calibration units for d and
// returns the median wall time of the units that started in its second
// half, when the host has settled into running all of them. It serves
// the service mix's concurrent phase, whose latencies are wall times.
func calibrateFor(par int, d time.Duration) time.Duration {
	start := time.Now()
	half := start.Add(d / 2)
	end := start.Add(d)
	var mu sync.Mutex
	var times []float64
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				u := calUnit(wallClock)
				mu.Lock()
				if !t0.Before(half) {
					times = append(times, float64(u))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Duration(median(times))
}

// calLog keeps a run's calibrations. It is safe for concurrent use.
type calLog struct {
	mu sync.Mutex
	xs []float64
	at []time.Time // when each calibration ended
}

// calibrate runs and records one calibration on par goroutines.
func (l *calLog) calibrate(par int, wall bool) time.Duration {
	c := calibrate(par, wall)
	l.record(c)
	return c
}

// calibrateFor runs and records a sustained calibration (calibrateFor).
func (l *calLog) calibrateFor(par int, d time.Duration) time.Duration {
	c := calibrateFor(par, d)
	l.record(c)
	return c
}

func (l *calLog) record(c time.Duration) {
	l.mu.Lock()
	l.xs = append(l.xs, float64(c))
	l.at = append(l.at, time.Now())
	l.mu.Unlock()
}

// stale reports whether the latest calibration is older than calEvery.
func (l *calLog) stale() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.at) == 0 || time.Since(l.at[len(l.at)-1]) >= calEvery
}

// recent returns the median of the calibrations that ended within
// calSpan of the latest one. This smooths the noise of single
// calibrations while following the host's drift, which takes seconds.
func (l *calLog) recent() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.at) - 1
	for i > 0 && l.at[len(l.at)-1].Sub(l.at[i-1]) < calSpan {
		i--
	}
	return time.Duration(median(l.xs[i:]))
}

// median returns the run's median calibration.
func (l *calLog) median() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(median(l.xs))
}

// norm scales raw milliseconds by the run's median calibration, for
// times taken from spans rather than paired with a calibration.
func (l *calLog) norm(rawMs float64) float64 {
	return rawMs * float64(calRef) / float64(l.median())
}

// normMs returns d normalized by calibration c, in milliseconds.
func normMs(d, c time.Duration) float64 {
	return ms(d) * float64(calRef) / float64(c)
}
