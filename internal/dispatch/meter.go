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

// FleetMeter renders progress snapshots as one self-overwriting line:
// done/total, trials/s, and an ETA (elapsed time once the snapshot is
// terminal). A run with more than one group also shows completed
// groups and the group being filled, so a day-long multi-dimensional
// run shows where it is, not just how much is left —
//
//	34/160 trials  12 trials/s  ETA 11s  groups 1/4  [AR 16x16 2/40]
//
// Every snapshot redraws: the source throttles (LocalProgress), so the
// meter does not.
type FleetMeter struct {
	w     io.Writer
	now   func() time.Time
	start time.Time
}

// NewFleetMeter returns a meter writing to w.
func NewFleetMeter(w io.Writer) *FleetMeter {
	f := &FleetMeter{w: w, now: time.Now}
	f.start = f.now()
	return f
}

// SetClock replaces the time source (tests); call before the first
// Update.
func (f *FleetMeter) SetClock(now func() time.Time) {
	f.now = now
	f.start = now()
}

// Update redraws the line from a snapshot. Snapshots arrive from a
// serialized progress callback, so no locking is needed.
func (f *FleetMeter) Update(snap FleetSnapshot) {
	final := snap.Terminal()
	now := f.now()
	agg := snap.Fleet
	elapsed := now.Sub(f.start)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(agg.Done) / elapsed.Seconds()
	}
	tail := ""
	if len(snap.Groups) > 1 {
		tail = groupSummary(snap, final)
	}
	when := "in " + FormatETA(elapsed)
	if !final {
		when = "ETA --"
		if rate > 0 && agg.Total > agg.Done {
			when = "ETA " + FormatETA(time.Duration(float64(agg.Total-agg.Done)/rate*float64(time.Second)))
		}
	}
	fmt.Fprintf(f.w, "\r%d/%d trials  %.0f trials/s  %s%s   ", agg.Done, agg.Total, rate, when, tail)
	if final {
		fmt.Fprintln(f.w)
	}
}

// groupSummary renders a run's group breakdown: finished
// groups out of all, then (mid-run) the current group's count.
func groupSummary(snap FleetSnapshot, final bool) string {
	finished, cur := 0, ""
	for _, g := range snap.Groups {
		if g.Done == g.Total {
			finished++
		}
		if !final && g.Group == snap.Fleet.Group {
			cur = fmt.Sprintf("  [%s %d/%d]", g.Group, g.Done, g.Total)
		}
	}
	return fmt.Sprintf("  groups %d/%d%s", finished, len(snap.Groups), cur)
}

// PublishFleet forwards a progress snapshot to a dashboard publisher in
// the telemetry wire shapes. A terminal snapshot publishes as final and
// groupless: a finished run has no current group. The conversion lives
// here because telemetry must not import dispatch.
func PublishFleet(pub *telemetry.Publisher, s FleetSnapshot) {
	final := s.Terminal()
	groups := make([]telemetry.GroupView, len(s.Groups))
	for i, g := range s.Groups {
		groups[i] = telemetry.GroupView{Group: g.Group, Done: g.Done, Total: g.Total}
	}
	fleet := s.Fleet
	if final {
		fleet.Group, fleet.GroupDone = "", 0
	}
	pub.Publish(fleet, groups, final)
}
