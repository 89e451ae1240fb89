// Workload API: damage models as first-class, composable campaign
// dimensions.
//
// A Workload owns a trial's damage timeline. It is checked from a
// JSON-named WorkloadSpec ({"kind": "churn", "holes": 3, "every": 5})
// against a static kind table, resolves into a Schedule — a deployment
// plus round-indexed damage events — and round-trips through
// CampaignSpec, so every scenario is data in a spec file rather than a
// new code path. Each kind is defined once, in damage: its round-0
// damage (the opening) and the events that follow, from which both the
// standalone schedule and the composed form inside a combinator derive.
package sim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"wsncover/internal/deploy"
	"wsncover/internal/grid"
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
	// atomic kinds — the scenario-generator closure of the grammar.
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

// maxEvents bounds the events one workload schedules (churn and mover
// waves, resupply arrivals, and a composition's children together),
// checked from the spec before any event is built, so a submitted spec
// cannot make every cell's schedule allocate out of proportion to the
// request. The repository's longest schedule is 40 churn waves.
const maxEvents = 1 << 12

// WorkloadSpec is the JSON-named description of a workload: Kind selects
// a kind of the table, the remaining fields parameterize it and must
// stay zero when the kind does not use them (BuildWorkload rejects
// stray parameters, catching spec-file typos). The flat, value-semantics shape
// is what keeps campaign manifests mergeable and shardable: two jobs
// belong to the same curve iff their specs are (deeply) equal. Children
// makes the shape recursive: combinator kinds (sequence, overlay)
// compose the other kinds into scenarios.
type WorkloadSpec struct {
	// Kind names the workload ("holes", "jam", "churn", "depletion",
	// ...; see WorkloadKinds).
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

// Workload is a checked workload spec: Schedule resolves it into a
// trial's damage timeline. Every kind draws randomness only from the
// streams its schedule functions are handed, so equal (spec, seed)
// pairs damage the network identically wherever the trial runs.
type Workload struct{ spec WorkloadSpec }

// BuildWorkload checks a spec against the kind table: a known kind, no
// parameter the kind does not take, every parameter in range, and for
// combinators every child. The empty kind is holes.
func BuildWorkload(spec WorkloadSpec) (Workload, error) {
	if spec.Kind == "" {
		spec.Kind = WorkloadHoles
	}
	for _, info := range workloadKinds {
		if info.Kind == spec.Kind {
			if err := rejectParams(spec, info.Params); err != nil {
				return Workload{}, err
			}
			if err := checkParams(spec); err != nil {
				return Workload{}, err
			}
			return Workload{spec}, nil
		}
	}
	return Workload{}, fmt.Errorf("sim: unknown workload kind %q (registered: %s)",
		spec.Kind, strings.Join(WorkloadKinds(), ", "))
}

// Schedule resolves the workload for one trial: the kind's opening
// becomes the deployment and its events follow from round 0. It may
// adjust cfg before the network is built (depletion installs its energy
// model, byzantine and lossy their protocol knobs).
func (w Workload) Schedule(cfg *TrialConfig) (Schedule, error) {
	sched, err := w.schedule(cfg)
	if err == nil {
		sched.Deploy = sched.open.deploy(cfg.Spares)
	}
	return sched, err
}

// schedule is Schedule without Deploy, which a trial never calls: it
// builds the deployment from the opening (see opening.build).
func (w Workload) schedule(cfg *TrialConfig) (Schedule, error) {
	open, events, err := damage(w.spec, cfg, 0)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Events: events, open: open}, nil
}

// Schedule is a trial's resolved damage timeline.
type Schedule struct {
	// Deploy populates the empty network and applies the round-0 damage
	// that shapes the deployment itself (holes left vacant, jammed
	// discs). A trial builds the same deployment from the opening, once,
	// before the controller exists.
	Deploy func(net *network.Network, rng *randx.Rand) error
	// Events are the mid-run damage injections, ordered by round.
	Events []Event

	// open is the opening Deploy folds in; a TrialArena builds the same
	// deployment from it through its base memo.
	open opening
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

// WorkloadInfo documents one kind for discovery surfaces (cmd/sweep
// -list-workloads).
type WorkloadInfo struct {
	// Kind is the spec name.
	Kind string
	// Params are the spec fields the kind accepts, by JSON name.
	Params []string
	// Help is a one-line description.
	Help string
}

// workloadKinds is the kind table, sorted by kind. A kind's Params are
// the only spec fields it may set: BuildWorkload rejects any other
// non-zero field, so a spec-file typo fails loudly.
var workloadKinds = []WorkloadInfo{
	{WorkloadByzantine, []string{"holes", "frac", "prob", "count", "ttl"},
		"lying monitors spawn phantom repairs; ClaimTTL expiry must clean up (SR, sync)"},
	{WorkloadChurn, []string{"holes", "every", "waves"},
		"waves of fresh holes while recovery runs"},
	{WorkloadDepletion, []string{"holes", "every", "budget", "per_meter", "per_move"},
		"movement energy drains nodes until they die mid-run"},
	{WorkloadHoles, []string{"holes"},
		"vacate random cells before round 0 (the paper's Section 5 model)"},
	{WorkloadJam, []string{"radius"},
		"deploy complete coverage, then disable every node in a jammed disc"},
	{WorkloadLossy, []string{"holes", "loss", "ttl"},
		"holes scenario over a lossy radio; ClaimTTL recovers dropped messages (SR, sync)"},
	{WorkloadMover, []string{"every", "waves", "radius"},
		"adaptive jammer: each strike relocates toward recently repaired cells"},
	{WorkloadOverlay, []string{"children"},
		"compose children simultaneously from round 0"},
	{WorkloadRandom, []string{"pick", "count"},
		"seeded random composition over the registered kinds"},
	{WorkloadResupply, []string{"holes", "at", "every", "batch", "count"},
		"spare nodes arrive mid-run; the scheme retries abandoned holes (sync)"},
	{WorkloadSequence, []string{"children", "every"},
		"compose children as phases, each shifted by the gap (every)"},
}

// WorkloadKinds returns the kind names, sorted.
func WorkloadKinds() []string {
	kinds := make([]string, len(workloadKinds))
	for i, info := range workloadKinds {
		kinds[i] = info.Kind
	}
	return kinds
}

// WorkloadInfos returns the kinds with their documentation, sorted by
// kind.
func WorkloadInfos() []WorkloadInfo { return slices.Clone(workloadKinds) }

// rejectParams errors when a spec field outside params is non-zero.
func rejectParams(spec WorkloadSpec, params []string) error {
	check := [...]struct {
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
		if !c.zero && !slices.Contains(params, c.name) {
			return fmt.Errorf("sim: workload %q does not take %q", spec.Kind, c.name)
		}
	}
	return nil
}

// checkParams range-checks the parameters a kind takes, the events its
// schedule would hold included.
func checkParams(spec WorkloadSpec) error {
	switch spec.Kind {
	case WorkloadJam:
		if spec.Radius < 0 {
			return fmt.Errorf("sim: negative jam radius %g", spec.Radius)
		}
	case WorkloadChurn:
		if spec.Every < 0 || spec.Waves < 0 || spec.Holes < 0 {
			return fmt.Errorf("sim: negative churn parameter in %+v", spec)
		}
		if spec.Waves > maxEvents {
			return fmt.Errorf("sim: churn waves %d exceed the limit of %d events", spec.Waves, maxEvents)
		}
	case WorkloadDepletion:
		if spec.Every < 0 || spec.Budget < 0 || spec.PerMeter < 0 || spec.PerMove < 0 {
			return fmt.Errorf("sim: negative depletion parameter in %+v", spec)
		}
	case WorkloadMover:
		if spec.Every < 0 || spec.Waves < 0 || spec.Radius < 0 {
			return fmt.Errorf("sim: negative mover parameter in %+v", spec)
		}
		if spec.Waves > maxEvents {
			return fmt.Errorf("sim: mover waves %d exceed the limit of %d events", spec.Waves, maxEvents)
		}
	case WorkloadByzantine:
		if spec.Holes < 0 || spec.Count < 0 || spec.TTL < 0 {
			return fmt.Errorf("sim: negative byzantine parameter in %+v", spec)
		}
		if spec.Frac < 0 || spec.Frac > 1 {
			return fmt.Errorf("sim: byzantine frac %g outside [0,1]", spec.Frac)
		}
		if spec.Prob < 0 || spec.Prob > 1 {
			return fmt.Errorf("sim: byzantine prob %g outside [0,1]", spec.Prob)
		}
	case WorkloadResupply:
		if spec.Holes < 0 || spec.At < 0 || spec.Every < 0 || spec.Batch < 0 || spec.Count < 0 {
			return fmt.Errorf("sim: negative resupply parameter in %+v", spec)
		}
		// The arrivals add spares to the cell: bound them as its spares.
		batch, count := cmp.Or(spec.Batch, DefaultResupplyBatch), cmp.Or(spec.Count, 1)
		if batch > maxSpares || count > maxSpares || batch*count > maxSpares {
			return fmt.Errorf("sim: resupply batch %d x count %d exceeds the limit of %d spares per cell", batch, count, maxSpares)
		}
		if count > maxEvents {
			return fmt.Errorf("sim: resupply count %d exceeds the limit of %d events", count, maxEvents)
		}
	case WorkloadLossy:
		if spec.Holes < 0 || spec.TTL < 0 {
			return fmt.Errorf("sim: negative lossy parameter in %+v", spec)
		}
		if spec.Loss < 0 || spec.Loss >= 1 {
			return fmt.Errorf("sim: lossy loss %g outside [0,1)", spec.Loss)
		}
	case WorkloadSequence:
		if spec.Every < 0 {
			return fmt.Errorf("sim: negative sequence gap %d", spec.Every)
		}
		return validateComposition(spec)
	case WorkloadOverlay:
		return validateComposition(spec)
	case WorkloadRandom:
		if spec.Count < 0 || spec.Count > MaxChildren {
			return fmt.Errorf("sim: random child count %d outside [0,%d]", spec.Count, MaxChildren)
		}
	}
	return nil
}

// damage is the one definition of every kind: for a checked spec it
// returns the round-0 damage (the opening) and the events that follow,
// shifted to start at round at, installing the kind's knobs into cfg.
// Schedule folds the opening into the deployment; a combinator turns a
// child's opening into an event at the child's offset, so a kind's
// standalone and composed forms cannot drift apart.
func damage(spec WorkloadSpec, cfg *TrialConfig, at int) (opening, []Event, error) {
	vacate := opening{kind: openHoles, holes: cmp.Or(spec.Holes, cfg.Holes), avoidAdjacent: !cfg.AdjacentHolesOK}
	switch spec.Kind {
	case "", WorkloadHoles:
		// The paper's model: the hole cells receive no nodes at all.
		return vacate, nil, nil
	case WorkloadJam:
		// The hole count is emergent from the disc radius.
		return opening{kind: openJam, radius: cmp.Or(spec.Radius, cfg.JamRadius)}, nil, nil
	case WorkloadChurn:
		// Complete coverage, then wave i vacates fresh cells at round
		// at+i*every (cells already vacant stay as they are).
		every, waves := cmp.Or(spec.Every, DefaultChurnEvery), cmp.Or(spec.Waves, DefaultChurnWaves)
		events := make([]Event, waves)
		for i := range events {
			events[i] = failHolesEvent(vacate.holes, vacate.avoidAdjacent, at+i*every)
		}
		return opening{}, events, nil
	case WorkloadDepletion:
		// The holes scenario, then a recurring check kills every node
		// whose movement energy exceeds the budget. The checks only
		// observe energy spent by movement, so they are not barriers; the
		// trial's quiescence rule still fires one after the last move.
		// Depletion needs an energy model to drain: install the default
		// linear one unless the trial configured its own.
		if cfg.EnergyModel == (node.EnergyModel{}) {
			cfg.EnergyModel = node.EnergyModel{PerMeter: cmp.Or(spec.PerMeter, 1), PerMove: spec.PerMove}
		}
		every, budget := cmp.Or(spec.Every, DefaultDepletionEvery), cmp.Or(spec.Budget, DefaultDepletionBudget)
		return vacate, []Event{{
			Round: at + every,
			Every: every,
			Apply: func(net *network.Network, _ *randx.Rand, _ int) error {
				deploy.FailDepleted(net, budget)
				return nil
			},
		}}, nil
	case WorkloadMover:
		return opening{}, moverStrikes(spec, cfg, at), nil
	case WorkloadByzantine:
		installByzantine(spec, cfg)
		return vacate, nil, nil
	case WorkloadResupply:
		if cfg.Runner == RunAsync {
			return opening{}, nil, fmt.Errorf("sim: the resupply workload requires the sync runner")
		}
		return vacate, resupplyArrivals(spec, at), nil
	case WorkloadLossy:
		installLossy(spec, cfg)
		return vacate, nil, nil
	case WorkloadSequence, WorkloadOverlay:
		events, err := compose(spec, cfg, at)
		return opening{}, events, err
	case WorkloadRandom:
		return damage(generateRandom(spec, cfg), cfg, at)
	}
	return opening{}, nil, fmt.Errorf("sim: unknown workload kind %q", spec.Kind)
}

// opening is a kind's round-0 damage: none (complete coverage), random
// holes, or a jammed disc.
type opening struct {
	kind          openingKind
	holes         int
	avoidAdjacent bool
	// radius is the jam disc radius; 0 means 1.5 cell sizes.
	radius float64
}

// openingKind is the form of a kind's round-0 damage; the zero value is
// none.
type openingKind uint8

const (
	openHoles openingKind = iota + 1
	openJam
)

// deploy folds the opening into the deployment; see build.
func (o opening) deploy(spares int) func(*network.Network, *randx.Rand) error {
	return func(net *network.Network, rng *randx.Rand) error {
		return o.build(net, rng, spares, nil, 0)
	}
}

// build deploys spares spare nodes with the opening's damage, with the
// stream discipline the differential tests pin: hole cells are picked
// from stream 1 before Controlled draws from stream 2; the jam center's
// stream is split off as stream 1 first and drawn after the deployment.
// With a memo (a TrialArena's) the hole pick, the one-node-per-cell
// layout and the spares it recorded when this seed last deployed this
// opening are replayed, and only spares past the recording are drawn;
// the root stream still splits streams 1 and 2, so every later split is
// unchanged. A nil memo is the plain deploy.Controlled.
func (o opening) build(net *network.Network, rng *randx.Rand, spares int, memo *baseMemo, seed int64) error {
	var s1 *randx.Rand
	if o.kind != 0 {
		s1 = rng.Split(1)
	}
	s2 := rng.Split(2)
	key := baseKey{seed: seed, kind: o.kind, holes: o.holes, avoidAdjacent: o.avoidAdjacent}
	if hit, rec := memo.lookup(key, spares); hit != nil {
		if err := memo.replay(hit, net, spares, s2); err != nil {
			return err
		}
	} else {
		var cells []grid.Coord
		var err error
		if o.kind == openHoles {
			if cells, err = deploy.PickHoleCells(net.System(), o.holes, o.avoidAdjacent, s1); err != nil {
				return err
			}
		}
		if rec != nil {
			err = memo.record(rec, net, spares, cells, s2)
		} else {
			err = deploy.Controlled(net, spares, cells, s2)
		}
		if err != nil {
			return err
		}
	}
	if o.kind == openJam {
		deploy.FailRegion(net, s1.InRect(net.System().Bounds()), discRadius(o.radius, net.System()))
	}
	return nil
}

// event is the opening as a barrier event at round at, drawing from the
// firing's stream; ok is false when there is no round-0 damage.
func (o opening) event(at int) (ev Event, ok bool) {
	switch o.kind {
	case openHoles:
		return failHolesEvent(o.holes, o.avoidAdjacent, at), true
	case openJam:
		return Event{
			Round:   at,
			Barrier: true,
			Apply: func(net *network.Network, rng *randx.Rand, _ int) error {
				deploy.FailRegion(net, rng.InRect(net.System().Bounds()), discRadius(o.radius, net.System()))
				return nil
			},
		}, true
	}
	return Event{}, false
}

// failHolesEvent vacates a fresh batch of randomly picked cells at round
// at (cells already vacant stay as they are): a churn wave, and the
// composed form of the holes opening.
func failHolesEvent(holes int, avoidAdjacent bool, at int) Event {
	return Event{
		Round:   at,
		Barrier: true,
		Apply: func(net *network.Network, rng *randx.Rand, _ int) error {
			cells, err := deploy.PickHoleCells(net.System(), holes, avoidAdjacent, rng)
			if err != nil {
				return err
			}
			deploy.FailCells(net, cells)
			return nil
		},
	}
}

// discRadius resolves a jam or mover disc radius: 0 means 1.5 cell
// sizes.
func discRadius(r float64, sys *grid.System) float64 {
	if r == 0 {
		return 1.5 * sys.CellSize()
	}
	return r
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
