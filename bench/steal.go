package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The sandbox is a small VM on a shared host, and the host takes the vCPUs
// away in bursts: a run that met a burst measured the host, not indepd
// (ingest throughput 40k tuples/s instead of 60k with 1.3 s of steal in a
// 17 s run). The kernel counts that time as "steal" in /proc/stat, so a run
// watches it second by second and leaves the seconds that lost CPU to the
// host out of its figures, as long as at least half of a phase stays clean.

// stealTicks is how much steal (USER_HZ ticks, over both vCPUs) makes a
// second dirty. A calm run sees well under one tick a second.
const stealTicks = 3

// stealWatch samples the guest's cumulative steal time once a second.
type stealWatch struct {
	t0   time.Time
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	ticks []int64 // ticks[i] is the steal accrued in second i after t0
}

// stealNow reads the cumulative steal ticks from the first line of
// /proc/stat ("cpu user nice system idle iowait irq softirq steal ...").
func stealNow() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func watchSteal() *stealWatch {
	w := &stealWatch{t0: time.Now(), stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last := stealNow()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				now := stealNow()
				w.mu.Lock()
				w.ticks = append(w.ticks, now-last)
				w.mu.Unlock()
				last = now
			}
		}
	}()
	return w
}

func (w *stealWatch) close() {
	close(w.stop)
	w.wg.Wait()
}

// mask returns, for each whole second of a phase that began at start,
// whether the host stole CPU during it. A phase second straddles two of the
// watch's seconds and is dirty if either is.
func (w *stealWatch) mask(start time.Time, seconds int) []bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	dirty := make([]bool, seconds)
	first := int(start.Sub(w.t0) / time.Second)
	for j := range dirty {
		for _, k := range []int{first + j, first + j + 1} {
			if k >= 0 && k < len(w.ticks) && w.ticks[k] >= stealTicks {
				dirty[j] = true
			}
		}
	}
	return dirty
}

// usable reports whether a dirty mask leaves enough to measure on: some
// second is dirty and at least half are clean. Otherwise figures are taken
// over everything, as if no mask existed.
func usable(dirty []bool) bool {
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	return n > 0 && 2*n <= len(dirty)
}
