package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// input tree or request share Item; Parent is the index of the enclosing
// span, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Item   string        `json:"item"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The zero value is not
// usable; a nil *tracer records nothing, so untraced code paths pay only a
// nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// newTracer starts a span recorder whose times are relative to now.
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (tr *tracer) begin(name, item string, parent int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Item: item, Parent: parent, Start: now, End: -1})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// add records an already-measured span, for intervals timed elsewhere
// (the daemon's own log lines, the load generator's timestamps).
func (tr *tracer) add(name, item string, parent int, start, end time.Duration) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Item: item, Parent: parent, Start: start, End: end})
	return len(tr.spans) - 1
}

// total sums the durations of closed spans named name.
func (tr *tracer) total(name string) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var d time.Duration
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// breakdown is the self time of every span name under the roots named
// root: a span's duration minus the part its children cover. Shares are
// of the roots' summed duration; unattributed is the roots' own self time,
// the part of the measured interval no layer span accounts for.
type breakdown struct {
	share        map[string]float64
	unattributed float64
}

// breakdown attributes the time of every closed root span named root.
func (tr *tracer) breakdown(root string) breakdown {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	var rootTotal, rootSelf time.Duration
	var walk func(i int) time.Duration
	walk = func(i int) time.Duration {
		s := tr.spans[i]
		if s.End < 0 {
			return 0
		}
		d := s.End - s.Start
		covered := coveredBy(tr.spans, children[i])
		for _, c := range children[i] {
			walk(c)
		}
		own := d - covered
		if own < 0 {
			own = 0
		}
		self[s.Name] += own
		return own
	}
	for i, s := range tr.spans {
		if s.Parent == -1 && s.Name == root && s.End >= 0 {
			rootTotal += s.End - s.Start
			rootSelf += walk(i)
		}
	}
	b := breakdown{share: make(map[string]float64)}
	if rootTotal == 0 {
		return b
	}
	for name, d := range self {
		if name != root {
			b.share[name] = float64(d) / float64(rootTotal)
		}
	}
	b.unattributed = float64(rootSelf) / float64(rootTotal)
	return b
}

// coveredBy is the length of the union of the closed spans ids, so
// overlapping children (concurrent requests) are not counted twice.
func coveredBy(spans []span, ids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range ids {
		if spans[i].End >= 0 {
			ivs = append(ivs, iv{spans[i].Start, spans[i].End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var d, hi time.Duration
	hi = -1 << 62
	for _, v := range ivs {
		if v.a > hi {
			d += v.b - v.a
			hi = v.b
		} else if v.b > hi {
			d += v.b - hi
			hi = v.b
		}
	}
	return d
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
