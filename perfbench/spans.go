package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call. Spans of one op share Op; set-up spans
// carry a negative Op (-1 for the first set-up repetition, -2 for the
// second, ...). Parent is 0 for an op's root span.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Kernel  string `json:"kernel,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths can share helpers with traced ones.
type tracer struct {
	epoch time.Time
	spans []span
}

// spanCap covers a traced run's spans without regrowing the slice: a
// regrow copies every span inside some op's interval and shows up as a
// gap in that op's coverage.
const spanCap = 1 << 15

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, spanCap)} }

func (t *tracer) begin(op, parent int, name, kernel string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent,
		Name: name, Kernel: kernel, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// wrap times f as a child span of parent.
func (t *tracer) wrap(op, parent int, name, kernel string, f func()) {
	id := t.begin(op, parent, name, kernel)
	f()
	t.end(id)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
