package dispatch

import (
	"fmt"
	"io"
	"sort"
	"strings"
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
// terminal). A fleet's line adds the live slot count and a per-shard
// state list —
//
//	fleet 34/160 trials  12 trials/s  ETA 11s  slots 3/4  shards [1:ok 2:42%x2 3:retry2 4:wait]
//
// Shards render as ok (finished), FAIL (exhausted retries), wait (not
// yet started), or a completion percentage while a lease is live —
// suffixed with retryN after relaunches, x2 while a speculative
// duplicate races a straggler, and ~age when the newest heartbeat is
// stale enough to matter (10s+). "slots a/b" appears once a retired
// slot shrinks the fleet. An in-process run (no shards) with more than
// one group instead shows completed groups and the group being filled,
// so a day-long multi-dimensional run shows where it is, not just how
// much is left —
//
//	34/160 trials  12 trials/s  ETA 11s  groups 1/4  [AR 16x16 2/40]
//
// Every snapshot redraws: the sources throttle (LocalProgress), so the
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
	head, tail := "", ""
	if len(snap.Shards) > 0 {
		head = "fleet "
		if snap.Retired > 0 {
			tail = fmt.Sprintf("  slots %d/%d", snap.Slots-snap.Retired, snap.Slots)
		}
		tail += "  shards " + shardList(snap.Shards, now)
	} else if len(snap.Groups) > 1 {
		tail = groupSummary(snap, final)
	}
	when := "in " + FormatETA(elapsed)
	if !final {
		when = "ETA --"
		if rate > 0 && agg.Total > agg.Done {
			when = "ETA " + FormatETA(time.Duration(float64(agg.Total-agg.Done)/rate*float64(time.Second)))
		}
	}
	fmt.Fprintf(f.w, "\r%s%d/%d trials  %.0f trials/s  %s%s   ", head, agg.Done, agg.Total, rate, when, tail)
	if final {
		fmt.Fprintln(f.w)
	}
}

// groupSummary renders an in-process run's group breakdown: finished
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

// staleBeat is the heartbeat age past which a running shard's cell
// shows it: young enough to never clutter a healthy fleet, old enough
// to finger the straggler long before its lease expires.
const staleBeat = 10 * time.Second

// shardList renders the compact per-shard state vector in shard order.
func shardList(shards []ShardStatus, now time.Time) string {
	ordered := make([]ShardStatus, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Shard < ordered[j].Shard })
	parts := make([]string, 0, len(ordered))
	for _, s := range ordered {
		parts = append(parts, fmt.Sprintf("%d:%s", s.Shard, shardCell(s, now)))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func shardCell(s ShardStatus, now time.Time) string {
	switch s.State {
	case ShardDone:
		return "ok"
	case ShardFailed:
		return "FAIL"
	case ShardPending:
		if s.Attempts > 0 {
			return fmt.Sprintf("retry%d", s.Attempts)
		}
		return "wait"
	}
	cell := fmt.Sprintf("%.0f%%", 100*s.Progress.Fraction())
	if s.Attempts > 1 {
		cell += fmt.Sprintf(" retry%d", s.Attempts)
	}
	if s.Leases > 1 {
		cell += fmt.Sprintf("x%d", s.Leases)
	}
	if !s.LastBeat.IsZero() {
		if age := now.Sub(s.LastBeat); age >= staleBeat {
			cell += "~" + FormatETA(age)
		}
	}
	return cell
}

// PublishFleet forwards a progress snapshot to a dashboard publisher in
// the telemetry wire shapes. A terminal snapshot publishes as final and
// groupless: a finished run has no current group. The conversion lives
// here because telemetry must not import dispatch.
func PublishFleet(pub *telemetry.Publisher, s FleetSnapshot) {
	final := s.Terminal()
	now := time.Now()
	shards := make([]telemetry.ShardView, len(s.Shards))
	for i, sh := range s.Shards {
		shards[i] = telemetry.ShardView{
			Shard:    sh.Shard,
			State:    sh.State.String(),
			Done:     sh.Progress.Done,
			Total:    sh.Progress.Total,
			Attempts: sh.Attempts,
			Slot:     sh.Slot,
			Leases:   sh.Leases,
			BeatAgeS: -1,
		}
		if sh.Attempts > 1 {
			shards[i].Retries = sh.Attempts - 1
		}
		if !sh.LastBeat.IsZero() {
			shards[i].BeatAgeS = now.Sub(sh.LastBeat).Seconds()
		}
	}
	groups := make([]telemetry.GroupView, len(s.Groups))
	for i, g := range s.Groups {
		groups[i] = telemetry.GroupView{Group: g.Group, Done: g.Done, Total: g.Total}
	}
	fleet := s.Fleet
	if final {
		fleet.Group, fleet.GroupDone = "", 0
	}
	pub.Publish(fleet, shards, groups, final)
}
