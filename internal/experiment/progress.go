package experiment

import (
	"encoding/json"
	"fmt"
)

// Progress is one campaign progress event: how many trials are done out
// of how many the run will execute, and (optionally) the group of the
// trial that just completed. It is the payload of the newline-delimited
// JSON protocol shard workers speak on stdout (cmd/sweep -progress=json)
// and the unit the dispatch driver folds into its fleet meter — one
// line, one event:
//
//	{"done":12,"total":40,"group":"SR 16x16","group_done":3}
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Group string `json:"group,omitempty"`
	// GroupDone, when positive, is the emitter's completed-trial count
	// within Group — the fuel for per-group completion heatmaps. It is
	// optional (older emitters omit it) and scoped to the emitting
	// process: a shard worker reports its own shard's count, and the
	// fleet-wide count for a group is the sum over shards.
	GroupDone int `json:"group_done,omitempty"`
}

// MarshalLine renders the event as one newline-terminated JSON line.
func (p Progress) MarshalLine() []byte {
	b, _ := json.Marshal(p) // no marshalable-field can fail
	return append(b, '\n')
}

// LineKind classifies one line of a worker's stdout stream for the
// progress-as-heartbeat contract: every valid protocol event renews the
// worker's lease, chatter is ignored, and a malformed event — a line
// that claims to be protocol but does not parse or validate — is logged
// and skipped by the supervisor WITHOUT renewing the lease, so a worker
// emitting garbage (truncated writes, corrupted pipes, a chaos-injected
// fault) burns its heartbeat deadline instead of crashing the driver.
type LineKind int

const (
	// LineEvent: a valid Progress event (and a heartbeat).
	LineEvent LineKind = iota
	// LineChatter: not protocol at all — blank, or not JSON-shaped.
	// Supervisors ignore it silently.
	LineChatter
	// LineMalformed: JSON-shaped but unparseable or failing the protocol
	// invariants. Counts against the worker's heartbeat, never renews it.
	LineMalformed
)

// ClassifyProgressLine decodes one line of the progress protocol and
// says what the line was. Only LineEvent returns a usable Progress.
func ClassifyProgressLine(line []byte) (Progress, LineKind) {
	trimmed := bytesTrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return Progress{}, LineChatter
	}
	var p Progress
	if err := json.Unmarshal(trimmed, &p); err != nil || p.Total <= 0 || p.Done < 0 || p.Done > p.Total ||
		p.GroupDone < 0 || p.GroupDone > p.Total {
		return Progress{}, LineMalformed
	}
	return p, LineEvent
}

func bytesTrimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}

// MergeProgress folds per-shard progress events into fleet-wide totals:
// done and total sum, and the group is kept only when every non-empty
// input agrees on it (shards of one campaign usually disagree, so the
// fleet event is groupless). Events with a zero Total — shards that
// have not reported yet — contribute nothing to Done but may still
// carry their Total once known, so the fold is safe to run over a
// partially started fleet. GroupDone sums only when the merged event
// keeps a group — per-group counts from shards walking different groups
// are incomparable, so the merged count drops to zero with the label.
func MergeProgress(events ...Progress) Progress {
	var out Progress
	group, groupSet, groupMixed := "", false, false
	for _, e := range events {
		out.Done += e.Done
		out.Total += e.Total
		if e.Group == "" {
			continue
		}
		out.GroupDone += e.GroupDone
		if !groupSet {
			group, groupSet = e.Group, true
		} else if group != e.Group {
			groupMixed = true
		}
	}
	if groupSet && !groupMixed {
		out.Group = group
	} else {
		out.GroupDone = 0
	}
	return out
}

// Fraction returns completion in [0, 1]; a zero-total event is 0.
func (p Progress) Fraction() float64 {
	if p.Total <= 0 {
		return 0
	}
	return float64(p.Done) / float64(p.Total)
}

// String implements fmt.Stringer.
func (p Progress) String() string {
	if p.Group == "" {
		return fmt.Sprintf("%d/%d", p.Done, p.Total)
	}
	return fmt.Sprintf("%d/%d [%s]", p.Done, p.Total, p.Group)
}
