package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report is the serializable snapshot of one span subtree. Field names
// form the stable "scdc-stats/1" wire schema documented in DESIGN.md §7:
// name, ns, counters, gauges, children. New keys may be added to counters
// and gauges; the structural keys never change meaning.
type Report struct {
	// Name is the span name (stage taxonomy in DESIGN.md §7).
	Name string `json:"name"`
	// NS is the span duration in nanoseconds (monotonic).
	NS int64 `json:"ns"`
	// Counters holds monotonically accumulated integers (bytes, points).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds point-in-time measurements (entropies, ratios).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Children are nested stages in creation order.
	Children []*Report `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk of the
// subtree (including the root), or nil.
func (r *Report) Find(name string) *Report {
	if r == nil {
		return nil
	}
	if r.Name == name {
		return r
	}
	for _, c := range r.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk calls fn for every node of the subtree in depth-first, top-down
// order (the root first). Nil reports walk nothing.
func (r *Report) Walk(fn func(*Report)) {
	if r == nil {
		return
	}
	fn(r)
	for _, c := range r.Children {
		c.Walk(fn)
	}
}

// Counter returns counter name summed over the subtree rooted at the
// first span matching span (Find semantics); 0 when absent.
func (r *Report) Counter(span, name string) int64 {
	n := r.Find(span)
	if n == nil {
		return 0
	}
	return n.Counters[name]
}

// barWidth is the bar length of a full-duration Flamegraph line.
const barWidth = 24

// Flamegraph renders the report as an indented text tree for terminal
// reads: per span a duration, its share of the root duration, a
// proportional bar, and any counters/gauges. Durations of siblings need
// not sum to the parent (accumulating spans overlap wall-clock children).
func Flamegraph(r *Report) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	total := r.NS
	if total <= 0 {
		total = 1
	}
	var walk func(n *Report, depth int)
	walk = func(n *Report, depth int) {
		frac := float64(n.NS) / float64(total)
		bar := strings.Repeat("█", int(frac*barWidth+0.5))
		name := strings.Repeat("  ", depth) + n.Name
		fmt.Fprintf(&b, "%-38s %10s %5.1f%% %-*s%s\n",
			name, time.Duration(n.NS).Round(time.Microsecond), 100*frac, barWidth, bar, annotations(n))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(r, 0)
	return b.String()
}

// annotations formats a span's counters and gauges as sorted key=value
// pairs.
func annotations(n *Report) string {
	if len(n.Counters) == 0 && len(n.Gauges) == 0 {
		return ""
	}
	keys := make([]string, 0, len(n.Counters)+len(n.Gauges))
	for k := range n.Counters {
		keys = append(keys, k)
	}
	for k := range n.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if v, ok := n.Counters[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%.3g", k, n.Gauges[k]))
		}
	}
	return " " + strings.Join(parts, " ")
}
