package dispatch

import (
	"fmt"
	"io"
	"time"

	"wsncover/internal/telemetry"
)

// FormatETA renders a duration as s / m+s / h+m. The duration is rounded
// to whole seconds first so boundary values roll into the larger unit
// ("60s" never appears; 59.7s renders as 1m00s).
func FormatETA(d time.Duration) string {
	if d < time.Second {
		return "<1s"
	}
	s := int(d.Seconds() + 0.5)
	switch {
	case s < 60:
		return fmt.Sprintf("%ds", s)
	case s < 3600:
		return fmt.Sprintf("%dm%02ds", s/60, s%60)
	default:
		return fmt.Sprintf("%dh%02dm", s/3600, s/60%60)
	}
}

// Meter renders progress snapshots as one self-overwriting line:
// done/total, trials/s, and an ETA (elapsed time once the snapshot is
// final). A run with more than one group also shows completed groups
// and the group being filled, so a day-long multi-dimensional run shows
// where it is, not just how much is left —
//
//	34/160 trials  12 trials/s  ETA 11s  groups 1/4  [AR 16x16 2/40]
//
// The meter only renders: the source (LocalProgress) throttles and
// stamps the rate and ETA, so every snapshot redraws as it is.
type Meter struct {
	w io.Writer
}

// NewMeter returns a meter writing to w.
func NewMeter(w io.Writer) *Meter {
	return &Meter{w: w}
}

// Update redraws the line from a snapshot. Snapshots arrive from a
// serialized progress callback, so no locking is needed.
func (m *Meter) Update(s telemetry.Snapshot) {
	p := s.Progress
	tail := ""
	if len(s.Groups) > 1 {
		tail = groupSummary(s)
	}
	when := "in " + FormatETA(seconds(s.ElapsedS))
	if !s.Final {
		when = "ETA --"
		if s.ETAS >= 0 {
			when = "ETA " + FormatETA(seconds(s.ETAS))
		}
	}
	fmt.Fprintf(m.w, "\r%d/%d trials  %.0f trials/s  %s%s   ", p.Done, p.Total, s.TrialsPerS, when, tail)
	if s.Final {
		fmt.Fprintln(m.w)
	}
}

// seconds converts a snapshot's float seconds to a duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// groupSummary renders a run's group breakdown: finished groups out of
// all, then (mid-run) the current group's count.
func groupSummary(s telemetry.Snapshot) string {
	finished, cur := 0, ""
	for _, g := range s.Groups {
		if g.Done == g.Total {
			finished++
		}
		if g.Group == s.Progress.Group {
			cur = fmt.Sprintf("  [%s %d/%d]", g.Group, g.Done, g.Total)
		}
	}
	return fmt.Sprintf("  groups %d/%d%s", finished, len(s.Groups), cur)
}
