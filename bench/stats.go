package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// supported reports whether n samples carry the q-quantile: at least ten
// samples must lie beyond it, or the figure is one slow request's luck.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// latencies collects one request class's latencies in milliseconds.
type latencies struct {
	ms     []float64
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.sorted = false
}

func (l *latencies) n() int { return len(l.ms) }

// q returns the q-quantile and whether the sample supports it.
func (l *latencies) q(q float64) (float64, bool) {
	if !l.sorted {
		sort.Float64s(l.ms)
		l.sorted = true
	}
	return quantile(l.ms, q), supported(len(l.ms), q)
}

// sum is the total of the sample, in milliseconds.
func (l *latencies) sum() float64 {
	t := 0.0
	for _, v := range l.ms {
		t += v
	}
	return t
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// schedule is an open-loop send schedule: request k is due at
// start + k·every whether or not earlier requests have come back.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.every) }

// account books request k, sent at sent and answered at done. The latency
// runs from the due time, so a stall is charged to every request it
// delayed, not only the one that was in flight; lateness is how far behind
// schedule the generator itself sent.
func (s schedule) account(k int, sent, done time.Time) (latency, lateness time.Duration) {
	due := s.due(k)
	lateness = sent.Sub(due)
	if lateness < 0 {
		lateness = 0
	}
	return done.Sub(due), lateness
}

// sample is one completed request of a measured phase.
type sample struct {
	at    time.Duration // completion time, from the phase's start
	lat   time.Duration
	work  int // tuple ops acknowledged by a write (0 for a by-design 409), 1 for a window
	class int // window class; 0 for writes
}

// phase is what the clients of one measured phase recorded. Its figures
// leave out the seconds the host stole CPU in (dirty) when that mask is
// usable; see steal.go.
type phase struct {
	samples []sample
	elapsed time.Duration
	dirty   []bool
}

func (p *phase) add(at, lat time.Duration, work, class int) {
	p.samples = append(p.samples, sample{at: at, lat: lat, work: work, class: class})
}

func (p *phase) merge(o *phase) { p.samples = append(p.samples, o.samples...) }

// work is the phase's total work, stolen seconds included.
func (p *phase) work() int {
	n := 0
	for _, s := range p.samples {
		n += s.work
	}
	return n
}

// stolen reports whether the sample completed in a second that is left out.
func (p *phase) stolen(s sample) bool {
	i := int(s.at / time.Second)
	return usable(p.dirty) && i < len(p.dirty) && p.dirty[i]
}

// latencies returns the latencies of one class.
func (p *phase) latencies(class int) *latencies {
	l := &latencies{}
	for _, s := range p.samples {
		if s.class == class && !p.stolen(s) {
			l.add(s.lat)
		}
	}
	return l
}

// sliceEvents is how many completions a one-second slice must hold on
// average before the median of slices is worth taking: below it the
// per-slice counts are too coarse and the phase reports its mean.
const sliceEvents = 100

// perSecond is the phase's work per second: the median of its whole
// seconds when they hold enough completions each (a stall of the host then
// costs the seconds it hit, not the whole figure), the mean otherwise.
func (p *phase) perSecond() float64 {
	whole := int(p.elapsed / time.Second)
	fast := len(p.samples) >= sliceEvents*whole
	if whole < 3 || (!fast && !usable(p.dirty)) {
		if p.elapsed <= 0 {
			return 0
		}
		return float64(p.work()) / p.elapsed.Seconds()
	}
	slices := make([]float64, whole)
	for _, s := range p.samples {
		if i := int(s.at / time.Second); i < whole {
			slices[i] += float64(s.work)
		}
	}
	kept := slices[:0]
	for i, v := range slices {
		if !p.stolen(sample{at: time.Duration(i) * time.Second}) {
			kept = append(kept, v)
		}
	}
	if fast {
		return median(kept)
	}
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}
