package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name=value pair attached to a metric series.
type Label struct{ Name, Value string }

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// histUnitSuffixes are the unit suffixes a histogram family name must end
// with: the name states what one observation is.
var histUnitSuffixes = []string{"_seconds", "_bytes", "_records", "_rows", "_ops"}

// CheckName enforces the repo's metric-naming convention: snake_case (the
// regexp forbids leading/trailing/double underscores and uppercase),
// counters end in _total, histograms end in a unit suffix, and no family
// name collides with the _bucket/_sum/_count/_total machinery of another
// kind. The registry panics on violations at registration time, which makes
// the convention a compile-test-time lint rather than a dashboard surprise.
func CheckName(kind Kind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("obs: metric name %q is not snake_case", name)
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	case KindGauge:
		for _, s := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				return fmt.Errorf("obs: gauge %q must not end in reserved suffix %s", name, s)
			}
		}
	case KindHistogram:
		ok := false
		for _, s := range histUnitSuffixes {
			if strings.HasSuffix(name, s) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("obs: histogram %q must end in a unit suffix (%s)",
				name, strings.Join(histUnitSuffixes, ", "))
		}
	}
	return nil
}

// series is one labeled member of a family, backed by exactly one source.
type series struct {
	key    string // rendered label block, e.g. `{relation="CT"}` ("" when unlabeled)
	c      *Counter
	g      *Gauge
	h      *Histogram
	cFn    func() uint64
	gFn    func() float64
	labels []Label
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	scale  float64 // histogram: raw int64 observation × scale = exposition unit
	series []*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition (format version 0.0.4). Registration is meant for startup
// (panics on naming or duplication errors — they are programming bugs);
// rendering may run concurrently with metric updates.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// labelKey renders a label block for dedup and exposition.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register validates and files a new series, creating its family on first
// use.
func (r *Registry) register(kind Kind, name, help string, scale float64, s *series) {
	if err := CheckName(kind, name); err != nil {
		panic(err)
	}
	for _, l := range s.labels {
		if !labelRE.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: label name %q on %s is not snake_case", l.Name, name))
		}
		if l.Name == "le" {
			panic(fmt.Sprintf("obs: label name le on %s is reserved for histogram buckets", name))
		}
	}
	s.key = labelKey(s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, scale: scale}
		r.fams[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %s re-registered with different help", name))
		}
	}
	for _, prev := range f.series {
		if prev.key == s.key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.key))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(KindCounter, name, help, 1, &series{c: c, labels: labels})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge for counters a subsystem already maintains
// under its own locks. fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(KindCounter, name, help, 1, &series{cFn: fn, labels: labels})
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(KindGauge, name, help, 1, &series{g: g, labels: labels})
	return g
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(KindGauge, name, help, 1, &series{gFn: fn, labels: labels})
}

// Histogram registers and returns a new histogram series. scale converts
// raw int64 observations into the unit the family name claims (1e-9 for
// nanosecond observations under a _seconds name; 1 for counts and bytes).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, scale, h, labels...)
	return h
}

// RegisterHistogram files an existing histogram (one a subsystem embeds and
// feeds directly) under the family name.
func (r *Registry) RegisterHistogram(name, help string, scale float64, h *Histogram, labels ...Label) {
	if scale <= 0 {
		panic(fmt.Sprintf("obs: histogram %s registered with non-positive scale", name))
	}
	r.register(KindHistogram, name, help, scale, &series{h: h, labels: labels})
}

// fnum renders a float the way the exposition format expects.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTo renders the full exposition: families sorted by name, each with
// its HELP and TYPE lines and every series. Histograms render cumulative
// le buckets (upper bounds scaled into the family's unit), _sum, and
// _count. Metric reads race benignly with writers: every source is atomic
// or reads under its own lock.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case KindCounter:
				v := s.c.Value()
				if s.cFn != nil {
					v = s.cFn()
				}
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.key, v)
			case KindGauge:
				if s.gFn != nil {
					fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, fnum(s.gFn()))
				} else {
					fmt.Fprintf(&b, "%s%s %d\n", f.name, s.key, s.g.Value())
				}
			case KindHistogram:
				writeHistogram(&b, f, s)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram renders one histogram series: cumulative buckets up to the
// highest populated octave, then +Inf, _sum, and _count.
func writeHistogram(b *strings.Builder, f *family, s *series) {
	snap := s.h.Snapshot()
	top := 0
	for i, n := range snap.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += snap.Buckets[i]
		le := float64(BucketUpper(i)) * f.scale
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketKey(s.key, fnum(le)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketKey(s.key, "+Inf"), snap.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.key, fnum(float64(snap.Sum)*f.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.key, snap.Count)
}

// bucketKey splices le into an existing label block.
func bucketKey(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

// Expose renders the registry to a byte slice.
func (r *Registry) Expose() []byte {
	var sb strings.Builder
	r.WriteTo(&sb)
	return []byte(sb.String())
}
