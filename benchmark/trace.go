package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's
// own files only — around each set-up step, the measured phase,
// drain/collect and each layer-driver batch — never from inside
// internal/*. Parent is the index of the enclosing span in the written
// array (-1 for a root); Calls is how many operations the interval
// covered (ops for a measured phase, calls for a driver batch).
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Calls    uint64 `json:"calls"`
}

// tracer keeps spans in memory and writes them as one JSON array at
// exit. A nil *tracer records nothing, so the untraced run pays one nil
// check per set-up step and none per simulated operation.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent,
	})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (which must be the innermost open span).
func (t *tracer) end(id int, calls uint64) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Calls = calls
}

// step runs fn inside a span; with a nil tracer it only runs fn.
func (t *tracer) step(name, layer string, fn func() error) error {
	id := t.begin(name, layer)
	err := fn()
	t.end(id, 1)
	return err
}

// write stores the spans at path, creating the directory if needed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
