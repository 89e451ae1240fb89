// Workload API: damage models as first-class, composable campaign
// dimensions.
//
// A Workload owns a trial's damage timeline. It is constructed from a
// JSON-named WorkloadSpec ({"kind": "churn", "holes": 3, "every": 5}),
// resolves into a Schedule — a deployment plus round-indexed damage
// events — and round-trips through CampaignSpec, so every scenario is
// data in a spec file rather than a new code path. The registry lets
// later packages add kinds without touching trial assembly.
package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wsncover/internal/deploy"
	"wsncover/internal/network"
	"wsncover/internal/node"
	"wsncover/internal/randx"
)

// Built-in workload kinds. The holes and jam kinds are the paper's
// Section 5 damage and its jamming extension; they are
// differential-tested byte-identical to the trial assembly that
// predates workloads, kept as a test-only reference.
const (
	// WorkloadHoles vacates randomly chosen cells before round 0 (the
	// paper's Section 5 configuration).
	WorkloadHoles = "holes"
	// WorkloadJam deploys complete coverage, then disables every node
	// within a jammed disc at a random center (Xu et al. [8]).
	WorkloadJam = "jam"
	// WorkloadChurn delivers waves of fresh holes while recovery runs:
	// ongoing mobility control, the paper's premise, as a measurable
	// scenario.
	WorkloadChurn = "churn"
	// WorkloadDepletion drains the movement energy model until nodes die
	// (deploy.FailDepleted), turning recovery cost into network lifetime.
	WorkloadDepletion = "depletion"
	// WorkloadMover is an adaptive jammer: a regional jam that relocates
	// toward recently repaired cells each epoch, chasing the scheme's own
	// recovery work.
	WorkloadMover = "mover"
	// WorkloadByzantine corrupts a fraction of monitor heads: liars report
	// false vacancies, spawning phantom replacement processes whose stale
	// claims only the ClaimTTL expiry path can clear.
	WorkloadByzantine = "byzantine"
	// WorkloadResupply delivers batches of fresh spare nodes mid-run and
	// rallies the scheme to retry holes it had given up on.
	WorkloadResupply = "resupply"
	// WorkloadLossy runs the paper's hole scenario over a lossy radio,
	// sweeping the ClaimTTL recovery knob against the message-drop rate.
	WorkloadLossy = "lossy"
	// WorkloadSequence composes child workloads as phases: child i's
	// damage is shifted by i gap rounds.
	WorkloadSequence = "sequence"
	// WorkloadOverlay composes child workloads simultaneously: all damage
	// timelines overlap from round 0.
	WorkloadOverlay = "overlay"
	// WorkloadRandom generates a seeded random composition over the
	// registered kinds — the scenario-generator closure of the grammar.
	WorkloadRandom = "random"
)

// Default parameters of the recurring workloads.
const (
	// DefaultChurnEvery is the round period between churn waves.
	DefaultChurnEvery = 5
	// DefaultChurnWaves is the number of churn waves (the first fires at
	// round 0).
	DefaultChurnWaves = 3
	// DefaultDepletionEvery is the round period of depletion checks.
	DefaultDepletionEvery = 2
	// DefaultDepletionBudget is the per-node movement energy budget.
	DefaultDepletionBudget = 30
	// DefaultMoverEvery is the round period between mover strikes.
	DefaultMoverEvery = 6
	// DefaultMoverStrikes is the number of mover strikes (the first fires
	// at round 0).
	DefaultMoverStrikes = 3
	// DefaultByzantineFrac is the fraction of monitor cells corrupted by
	// the byzantine workload.
	DefaultByzantineFrac = 0.05
	// DefaultByzantineProb is the per-round probability a corrupted
	// monitor tells a lie.
	DefaultByzantineProb = 0.25
	// DefaultByzantineLies bounds the lies each corrupted monitor tells,
	// so byzantine trials still converge once the liars run dry.
	DefaultByzantineLies = 2
	// DefaultByzantineTTL is the claim expiry the byzantine workload
	// installs when neither the spec nor the campaign sets one: phantom
	// claims must be able to expire or the trial can only hit its round
	// budget.
	DefaultByzantineTTL = 8
	// DefaultLossyLoss is the message-drop probability of the lossy radio.
	DefaultLossyLoss = 0.15
	// DefaultLossyTTL is the claim expiry the lossy workload installs when
	// neither the spec nor the campaign sets one.
	DefaultLossyTTL = 8
	// DefaultResupplyAt is the round the first resupply batch arrives.
	DefaultResupplyAt = 8
	// DefaultResupplyBatch is the spare-node count per resupply arrival.
	DefaultResupplyBatch = 4
	// DefaultPhaseGap is the round offset between sequence phases.
	DefaultPhaseGap = 10
	// DefaultRandomCount is the child count of a random composition.
	DefaultRandomCount = 2
	// MaxCompositionDepth bounds combinator nesting so a recursive spec
	// (or a fuzzer) cannot build unbounded schedules.
	MaxCompositionDepth = 4
	// MaxChildren bounds the fan-out of one combinator node.
	MaxChildren = 6
)

// WorkloadSpec is the JSON-named description of a workload: Kind selects
// a registered builder, the remaining fields parameterize it and must
// stay zero when the kind does not use them (builders reject stray
// parameters, catching spec-file typos). The flat, value-semantics shape
// is what keeps campaign manifests mergeable and shardable: two jobs
// belong to the same curve iff their specs are (deeply) equal. Children
// makes the shape recursive: combinator kinds (sequence, overlay)
// compose the registered kinds into scenarios.
type WorkloadSpec struct {
	// Kind names the registered workload ("holes", "jam", "churn",
	// "depletion", ..., or an externally registered kind).
	Kind string `json:"kind"`
	// Holes pins the workload's hole count per injection (the initial
	// batch for holes/depletion, each wave for churn), overriding the
	// campaign's swept holes dimension.
	Holes int `json:"holes,omitempty"`
	// Every is the round period of recurring injections: churn waves,
	// depletion checks, mover strikes, resupply arrivals, and the phase
	// gap of a sequence composition.
	Every int `json:"every,omitempty"`
	// Waves is the churn wave count or the mover strike count; the first
	// wave fires at round 0.
	Waves int `json:"waves,omitempty"`
	// Radius is the jam or mover disc radius in meters (0 = the trial's
	// JamRadius, then 1.5 cell sizes).
	Radius float64 `json:"radius,omitempty"`
	// Budget is the depletion energy budget per node; a node whose
	// movement energy account exceeds it dies at the next check.
	Budget float64 `json:"budget,omitempty"`
	// PerMeter and PerMove configure the depletion energy model when the
	// trial does not set one (0 = 1 energy/meter, no per-move cost).
	PerMeter float64 `json:"per_meter,omitempty"`
	PerMove  float64 `json:"per_move,omitempty"`
	// TTL overrides the trial's ClaimTTL for the lossy and byzantine
	// workloads (0 = the campaign's claim_ttls value, then the kind's
	// default).
	TTL int `json:"ttl,omitempty"`
	// Loss is the lossy radio's message-drop probability.
	Loss float64 `json:"loss,omitempty"`
	// Frac is the byzantine workload's corrupted-monitor fraction.
	Frac float64 `json:"frac,omitempty"`
	// Prob is the per-round lie probability of a corrupted monitor.
	Prob float64 `json:"prob,omitempty"`
	// Batch is the spare-node count per resupply arrival.
	Batch int `json:"batch,omitempty"`
	// At is the round of the first resupply arrival.
	At int `json:"at,omitempty"`
	// Count is the resupply arrival count, the per-liar lie budget of the
	// byzantine workload, or the child count of a random composition.
	Count int `json:"count,omitempty"`
	// Pick seeds the random composition generator. It is a spec field,
	// not the trial seed, so every replicate of a campaign group runs the
	// same composition.
	Pick int64 `json:"pick,omitempty"`
	// Children are the sub-workloads of a combinator kind (sequence,
	// overlay), composed recursively.
	Children []WorkloadSpec `json:"children,omitempty"`
}

// String renders the spec compactly: the kind plus its non-zero
// parameters. Distinct specs of one kind render distinctly, so the label
// is usable as a group-name component.
func (w WorkloadSpec) String() string {
	var b strings.Builder
	b.WriteString(w.Kind)
	if w.Holes != 0 {
		fmt.Fprintf(&b, " h=%d", w.Holes)
	}
	if w.Every != 0 {
		fmt.Fprintf(&b, " e=%d", w.Every)
	}
	if w.Waves != 0 {
		fmt.Fprintf(&b, " w=%d", w.Waves)
	}
	if w.Radius != 0 {
		fmt.Fprintf(&b, " r=%g", w.Radius)
	}
	if w.Budget != 0 {
		fmt.Fprintf(&b, " b=%g", w.Budget)
	}
	if w.PerMeter != 0 {
		fmt.Fprintf(&b, " pm=%g", w.PerMeter)
	}
	if w.PerMove != 0 {
		fmt.Fprintf(&b, " pv=%g", w.PerMove)
	}
	if w.TTL != 0 {
		fmt.Fprintf(&b, " t=%d", w.TTL)
	}
	if w.Loss != 0 {
		fmt.Fprintf(&b, " l=%g", w.Loss)
	}
	if w.Frac != 0 {
		fmt.Fprintf(&b, " f=%g", w.Frac)
	}
	if w.Prob != 0 {
		fmt.Fprintf(&b, " p=%g", w.Prob)
	}
	if w.Batch != 0 {
		fmt.Fprintf(&b, " n=%d", w.Batch)
	}
	if w.At != 0 {
		fmt.Fprintf(&b, " a=%d", w.At)
	}
	if w.Count != 0 {
		fmt.Fprintf(&b, " c=%d", w.Count)
	}
	if w.Pick != 0 {
		fmt.Fprintf(&b, " s=%d", w.Pick)
	}
	if len(w.Children) > 0 {
		b.WriteString(" [")
		for i, c := range w.Children {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(c.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

// groupLabel names the workload inside a job's group label; empty for
// the legacy default (random holes labeled by the holes dimension
// alone). holes is the job's resolved holes-dimension value.
func (w WorkloadSpec) groupLabel(holes int) string {
	switch w.Kind {
	case "", WorkloadHoles:
		// A pinned hole count must label the curve even though the swept
		// dimension collapsed to 1, or distinct holes workloads would
		// silently aggregate into one group.
		if w.Holes != 0 {
			return fmt.Sprintf("holes=%d", w.Holes)
		}
		if holes != 1 {
			return fmt.Sprintf("holes=%d", holes)
		}
		return ""
	default:
		s := w.String()
		if w.usesHolesDim() && holes != 1 {
			s += fmt.Sprintf(" holes=%d", holes)
		}
		return s
	}
}

// usesHolesDim reports whether the workload's damage scales with the
// campaign's swept holes dimension. Jam ignores it (the disc decides),
// and any workload that pins its own hole count opts out, so the
// campaign does not replicate identical (config, seed) jobs.
func (w WorkloadSpec) usesHolesDim() bool {
	switch w.Kind {
	case WorkloadJam, WorkloadMover, WorkloadSequence, WorkloadOverlay, WorkloadRandom:
		// Jam and mover damage is decided by the disc; compositions carry
		// their own hole counts in their children.
		return false
	}
	return w.Holes == 0
}

// Workload owns deterministic damage injection over a trial's timeline:
// it resolves a concrete TrialConfig into a Schedule. Implementations
// must draw randomness only from the streams their schedule functions
// are handed, so equal (spec, seed) pairs damage the network
// identically wherever the trial runs.
type Workload interface {
	// Kind returns the registered spec name.
	Kind() string
	// Schedule resolves the workload for one trial. It may adjust cfg
	// before the network is built (e.g. depletion installs its energy
	// model) and must validate its parameters.
	Schedule(cfg *TrialConfig) (Schedule, error)
}

// Schedule is a trial's resolved damage timeline.
type Schedule struct {
	// Deploy populates the empty network and applies the round-0 damage
	// that shapes the deployment itself (holes left vacant, jammed
	// discs). It is called exactly once, before the controller exists.
	Deploy func(net *network.Network, rng *randx.Rand) error
	// Events are the mid-run damage injections, ordered by round.
	Events []Event
}

// Event is one round-indexed damage injection of a schedule.
type Event struct {
	// Round is the controller round before whose step Apply fires;
	// round 0 fires before the first step.
	Round int
	// Every > 0 makes the event recurring: it re-fires at Round+Every,
	// Round+2*Every, ... for as long as the trial runs, at O(1) schedule
	// memory (depletion checks). Recurring events cannot be barriers —
	// they never drain.
	Every int
	// Barrier prevents trial convergence before the event has fired:
	// damage that arrives regardless of scheme state (churn waves) is a
	// barrier; probes that only observe state the scheme's own activity
	// changes (depletion checks reading energy spent by movement) are
	// not — the trial instead guarantees every recurring probe one
	// firing after the scheme's last activity, after which re-firing on
	// the idle network is a no-op.
	Barrier bool
	// Rally asks the trial to clear the scheme's given-up state after a
	// successful Apply (schemes exposing ResetFailed): damage that
	// restores resources (resupply) makes abandoned holes eligible for
	// repair again.
	Rally bool
	// Apply injects the damage. rng is a per-firing derived stream,
	// valid only for the duration of the call: Apply must not keep it,
	// or any stream split off it. round is the current trial round.
	Apply func(net *network.Network, rng *randx.Rand, round int) error
}

// WorkloadBuilder constructs a workload from its validated spec.
type WorkloadBuilder func(WorkloadSpec) (Workload, error)

var workloadRegistry = map[string]WorkloadBuilder{}

// RegisterWorkload adds a workload kind to the registry. It panics on an
// empty or duplicate kind. Registration must happen during package
// initialization; the registry is read concurrently by trial workers.
func RegisterWorkload(kind string, build WorkloadBuilder) {
	if kind == "" {
		panic("sim: RegisterWorkload with empty kind")
	}
	if _, dup := workloadRegistry[kind]; dup {
		panic(fmt.Sprintf("sim: workload kind %q registered twice", kind))
	}
	workloadRegistry[kind] = build
}

// BuildWorkload resolves a spec through the registry.
func BuildWorkload(spec WorkloadSpec) (Workload, error) {
	kind := spec.Kind
	if kind == "" {
		kind = WorkloadHoles
		spec.Kind = kind
	}
	build, ok := workloadRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("sim: unknown workload kind %q (registered: %s)",
			kind, strings.Join(WorkloadKinds(), ", "))
	}
	return build(spec)
}

// WorkloadKinds returns the registered kinds, sorted.
func WorkloadKinds() []string {
	kinds := make([]string, 0, len(workloadRegistry))
	for k := range workloadRegistry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// WorkloadInfo documents one registered kind for discovery surfaces
// (cmd/sweep -list-workloads).
type WorkloadInfo struct {
	// Kind is the registered spec name.
	Kind string
	// Params are the spec fields the kind accepts, by JSON name.
	Params []string
	// Help is a one-line description.
	Help string
}

var workloadDocs = map[string]WorkloadInfo{}

// DescribeWorkload records the parameter list and help line of a
// registered kind; discovery surfaces render it verbatim. Kinds without a
// description still list, with empty params.
func DescribeWorkload(info WorkloadInfo) {
	workloadDocs[info.Kind] = info
}

// WorkloadInfos returns the registered kinds with their documentation,
// sorted by kind.
func WorkloadInfos() []WorkloadInfo {
	infos := make([]WorkloadInfo, 0, len(workloadRegistry))
	for _, k := range WorkloadKinds() {
		if info, ok := workloadDocs[k]; ok {
			infos = append(infos, info)
		} else {
			infos = append(infos, WorkloadInfo{Kind: k})
		}
	}
	return infos
}

func init() {
	RegisterWorkload(WorkloadHoles, buildHolesWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadHoles,
		Params: []string{"holes"},
		Help:   "vacate random cells before round 0 (the paper's Section 5 model)",
	})
	RegisterWorkload(WorkloadJam, buildJamWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadJam,
		Params: []string{"radius"},
		Help:   "deploy complete coverage, then disable every node in a jammed disc",
	})
	RegisterWorkload(WorkloadChurn, buildChurnWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadChurn,
		Params: []string{"holes", "every", "waves"},
		Help:   "waves of fresh holes while recovery runs",
	})
	RegisterWorkload(WorkloadDepletion, buildDepletionWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadDepletion,
		Params: []string{"holes", "every", "budget", "per_meter", "per_move"},
		Help:   "movement energy drains nodes until they die mid-run",
	})
	RegisterWorkload(WorkloadMover, buildMoverWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadMover,
		Params: []string{"every", "waves", "radius"},
		Help:   "adaptive jammer: each strike relocates toward recently repaired cells",
	})
	RegisterWorkload(WorkloadByzantine, buildByzantineWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadByzantine,
		Params: []string{"holes", "frac", "prob", "count", "ttl"},
		Help:   "lying monitors spawn phantom repairs; ClaimTTL expiry must clean up (SR, sync)",
	})
	RegisterWorkload(WorkloadResupply, buildResupplyWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadResupply,
		Params: []string{"holes", "at", "every", "batch", "count"},
		Help:   "spare nodes arrive mid-run; the scheme retries abandoned holes (sync)",
	})
	RegisterWorkload(WorkloadLossy, buildLossyWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadLossy,
		Params: []string{"holes", "loss", "ttl"},
		Help:   "holes scenario over a lossy radio; ClaimTTL recovers dropped messages (SR, sync)",
	})
	RegisterWorkload(WorkloadSequence, buildSequenceWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadSequence,
		Params: []string{"children", "every"},
		Help:   "compose children as phases, each shifted by the gap (every)",
	})
	RegisterWorkload(WorkloadOverlay, buildOverlayWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadOverlay,
		Params: []string{"children"},
		Help:   "compose children simultaneously from round 0",
	})
	RegisterWorkload(WorkloadRandom, buildRandomWorkload)
	DescribeWorkload(WorkloadInfo{
		Kind:   WorkloadRandom,
		Params: []string{"pick", "count"},
		Help:   "seeded random composition over the registered kinds",
	})
}

// rejectParams errors when any of the named spec fields is non-zero;
// builders use it so stray parameters fail loudly instead of being
// silently ignored.
func rejectParams(spec WorkloadSpec, fields map[string]bool) error {
	check := []struct {
		name string
		zero bool
	}{
		{"holes", spec.Holes == 0},
		{"every", spec.Every == 0},
		{"waves", spec.Waves == 0},
		{"radius", spec.Radius == 0},
		{"budget", spec.Budget == 0},
		{"per_meter", spec.PerMeter == 0},
		{"per_move", spec.PerMove == 0},
		{"ttl", spec.TTL == 0},
		{"loss", spec.Loss == 0},
		{"frac", spec.Frac == 0},
		{"prob", spec.Prob == 0},
		{"batch", spec.Batch == 0},
		{"at", spec.At == 0},
		{"count", spec.Count == 0},
		{"pick", spec.Pick == 0},
		{"children", len(spec.Children) == 0},
	}
	for _, c := range check {
		if !c.zero && !fields[c.name] {
			return fmt.Errorf("sim: workload %q does not take %q", spec.Kind, c.name)
		}
	}
	return nil
}

// holesWorkload is the paper's model: vacate random cells before round 0.
// Its deployment and damage are one act (the hole cells receive no nodes
// at all): hole cells are picked from seed stream 1, then the network is
// deployed from stream 2.
type holesWorkload struct{ spec WorkloadSpec }

func buildHolesWorkload(spec WorkloadSpec) (Workload, error) {
	if err := rejectParams(spec, map[string]bool{"holes": true}); err != nil {
		return nil, err
	}
	return holesWorkload{spec}, nil
}

func (w holesWorkload) Kind() string { return WorkloadHoles }

func (w holesWorkload) Schedule(cfg *TrialConfig) (Schedule, error) {
	holes := w.spec.Holes
	if holes == 0 {
		holes = cfg.Holes
	}
	spares, avoidAdjacent := cfg.Spares, !cfg.AdjacentHolesOK
	return Schedule{Deploy: func(net *network.Network, rng *randx.Rand) error {
		cells, err := deploy.PickHoleCells(net.System(), holes, avoidAdjacent, rng.Split(1))
		if err != nil {
			return err
		}
		return deploy.Controlled(net, spares, cells, rng.Split(2))
	}}, nil
}

// jamWorkload deploys complete coverage and jams a disc at a random
// center; the hole count is emergent from the radius. The disc center
// draws from seed stream 1 and the deployment from stream 2.
type jamWorkload struct{ spec WorkloadSpec }

func buildJamWorkload(spec WorkloadSpec) (Workload, error) {
	if err := rejectParams(spec, map[string]bool{"radius": true}); err != nil {
		return nil, err
	}
	if spec.Radius < 0 {
		return nil, fmt.Errorf("sim: negative jam radius %g", spec.Radius)
	}
	return jamWorkload{spec}, nil
}

func (w jamWorkload) Kind() string { return WorkloadJam }

func (w jamWorkload) Schedule(cfg *TrialConfig) (Schedule, error) {
	radius := w.spec.Radius
	if radius == 0 {
		radius = cfg.JamRadius
	}
	spares := cfg.Spares
	return Schedule{Deploy: func(net *network.Network, rng *randx.Rand) error {
		// The damage stream is split before the deployment stream, the
		// discipline the differential tests pin.
		damage := rng.Split(1)
		if err := deploy.Controlled(net, spares, nil, rng.Split(2)); err != nil {
			return err
		}
		r := radius
		if r == 0 {
			r = 1.5 * net.System().CellSize()
		}
		deploy.FailRegion(net, damage.InRect(net.System().Bounds()), r)
		return nil
	}}, nil
}

// churnWorkload deploys complete coverage and then delivers waves of
// fresh holes while recovery runs — the ongoing-mobility scenario the
// paper motivates but never evaluates. Wave i fires at round i*Every and
// vacates Holes cells (cells already vacant are left as they are).
type churnWorkload struct{ spec WorkloadSpec }

func buildChurnWorkload(spec WorkloadSpec) (Workload, error) {
	err := rejectParams(spec, map[string]bool{"holes": true, "every": true, "waves": true})
	if err != nil {
		return nil, err
	}
	if spec.Every < 0 || spec.Waves < 0 || spec.Holes < 0 {
		return nil, fmt.Errorf("sim: negative churn parameter in %+v", spec)
	}
	return churnWorkload{spec}, nil
}

func (w churnWorkload) Kind() string { return WorkloadChurn }

func (w churnWorkload) Schedule(cfg *TrialConfig) (Schedule, error) {
	holes := w.spec.Holes
	if holes == 0 {
		holes = cfg.Holes
	}
	every := w.spec.Every
	if every == 0 {
		every = DefaultChurnEvery
	}
	waves := w.spec.Waves
	if waves == 0 {
		waves = DefaultChurnWaves
	}
	spares, avoidAdjacent := cfg.Spares, !cfg.AdjacentHolesOK
	sched := Schedule{Deploy: func(net *network.Network, rng *randx.Rand) error {
		return deploy.Controlled(net, spares, nil, rng.Split(2))
	}}
	for i := 0; i < waves; i++ {
		sched.Events = append(sched.Events, Event{
			Round:   i * every,
			Barrier: true,
			Apply: func(net *network.Network, rng *randx.Rand, round int) error {
				cells, err := deploy.PickHoleCells(net.System(), holes, avoidAdjacent, rng)
				if err != nil {
					return err
				}
				deploy.FailCells(net, cells)
				return nil
			},
		})
	}
	return sched, nil
}

// depletionWorkload starts from the paper's hole configuration and
// periodically kills every node whose movement energy account exceeds
// the budget: recovery movement itself erodes the network, so the trial
// measures lifetime under repair, not just repair cost. The checks only
// observe energy spent by movement, so they are not convergence
// barriers; the trial's quiescence rule still guarantees one check
// after the last movement, so a node pushed over budget by its final
// move cannot escape.
type depletionWorkload struct{ spec WorkloadSpec }

func buildDepletionWorkload(spec WorkloadSpec) (Workload, error) {
	err := rejectParams(spec, map[string]bool{
		"holes": true, "every": true, "budget": true, "per_meter": true, "per_move": true,
	})
	if err != nil {
		return nil, err
	}
	if spec.Every < 0 || spec.Budget < 0 || spec.PerMeter < 0 || spec.PerMove < 0 {
		return nil, fmt.Errorf("sim: negative depletion parameter in %+v", spec)
	}
	return depletionWorkload{spec}, nil
}

func (w depletionWorkload) Kind() string { return WorkloadDepletion }

func (w depletionWorkload) Schedule(cfg *TrialConfig) (Schedule, error) {
	holes := w.spec.Holes
	if holes == 0 {
		holes = cfg.Holes
	}
	every := w.spec.Every
	if every == 0 {
		every = DefaultDepletionEvery
	}
	budget := w.spec.Budget
	if budget == 0 {
		budget = DefaultDepletionBudget
	}
	// Depletion needs an energy model to have anything to drain; install
	// the default linear one unless the trial configured its own.
	if cfg.EnergyModel == (node.EnergyModel{}) {
		perMeter := w.spec.PerMeter
		if perMeter == 0 {
			perMeter = 1
		}
		cfg.EnergyModel = node.EnergyModel{PerMeter: perMeter, PerMove: w.spec.PerMove}
	}
	spares, avoidAdjacent := cfg.Spares, !cfg.AdjacentHolesOK
	return Schedule{
		Deploy: func(net *network.Network, rng *randx.Rand) error {
			cells, err := deploy.PickHoleCells(net.System(), holes, avoidAdjacent, rng.Split(1))
			if err != nil {
				return err
			}
			return deploy.Controlled(net, spares, cells, rng.Split(2))
		},
		Events: []Event{{
			Round: every,
			Every: every,
			Apply: func(net *network.Network, _ *randx.Rand, _ int) error {
				deploy.FailDepleted(net, budget)
				return nil
			},
		}},
	}, nil
}

// RunnerKind selects how a trial's controller is stepped: synchronous
// global rounds (the paper's system model) or the event-driven
// internal/async realization. The zero value is the synchronous runner,
// so legacy configurations are unchanged.
type RunnerKind int

const (
	// RunSync steps the scheme in global synchronous rounds.
	RunSync RunnerKind = iota
	// RunAsync drives the SR scheme with internal/async's timestamped
	// event queue (polls with jitter, message delays, travel times).
	// Schedule rounds map to nominal poll periods. SR only.
	RunAsync
)

// String implements fmt.Stringer.
func (k RunnerKind) String() string {
	switch k {
	case RunSync:
		return "sync"
	case RunAsync:
		return "async"
	default:
		return fmt.Sprintf("RunnerKind(%d)", int(k))
	}
}

// ParseRunnerKind inverts String ("" means sync).
func ParseRunnerKind(s string) (RunnerKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sync", "":
		return RunSync, nil
	case "async":
		return RunAsync, nil
	default:
		return 0, fmt.Errorf("sim: unknown runner %q (want sync or async)", s)
	}
}

// MarshalJSON renders the runner by name so spec files stay readable.
func (k RunnerKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a runner name.
func (k *RunnerKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseRunnerKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}
