package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module. Name is
// "<layer>.<call>"; Parent is 0 for a root span; Req ties together the
// spans of one request or job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced runs call the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a started span; finish records it.
type openSpan struct {
	r  *recorder
	sp span
}

// begin starts a span now.
func (r *recorder) begin(name, req string, parent int64) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	// Reserve the slot so ids stay unique while the span is open.
	r.spans = append(r.spans, span{ID: id})
	r.mu.Unlock()
	return &openSpan{r: r, sp: span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(r.t0).Nanoseconds()}}
}

// id returns the span's id, 0 for a nil span.
func (s *openSpan) id() int64 {
	if s == nil {
		return 0
	}
	return s.sp.ID
}

// finish ends the span now.
func (s *openSpan) finish() {
	if s == nil {
		return
	}
	s.sp.End = time.Since(s.r.t0).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans[s.sp.ID-1] = s.sp
	s.r.mu.Unlock()
}

// add records a span whose interval was observed elsewhere, such as a
// phase the program reported through its observer.
func (r *recorder) add(name, req string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: the summed span
// durations minus the part of each span its child spans cover.
func (r *recorder) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of parent's interval the children's union
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the spans and the self-time table as JSON under spanDir.
func (r *recorder) write(workload string, seed int64, self map[string]float64) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// finishTrace writes the spans and prints each layer's self time.
func finishTrace(rec *recorder, cfg config, o *outcome) error {
	self := rec.selfTimes()
	path, err := rec.write(cfg.workload, cfg.seed, self)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	for layer, s := range self {
		o.info["self."+layer+"_s"] = metric{s, "s"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rec.spans), path)
	return nil
}
