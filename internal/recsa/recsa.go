package recsa

import (
	"math/rand"
	"slices"

	"repro/internal/ids"
)

// Options tunes the algorithm.
type Options struct {
	// DegreeGap is the maximum tolerated difference between notification
	// degrees (2·phase + all) of two participants before the state is
	// declared type-3 stale and reset. The paper's bound is 1, which is
	// exact under lock-step views but false-positive-prone when local
	// views lag asynchronously; the default of 2 tolerates one view of
	// staleness. Experiment E10 ablates this choice.
	DegreeGap int
	// Patience is the number of steps an idle processor tolerates the
	// system's maximal notification equaling its lastDone record before
	// concluding the record came from corrupted state and clearing it
	// (liveness only; safety never depends on it).
	Patience int
}

// DefaultOptions returns the recommended configuration.
func DefaultOptions() Options { return Options{DegreeGap: 2, Patience: 24} }

// FDSource supplies the failure detector's trusted set (which always
// includes the caller itself).
type FDSource interface {
	Trusted() ids.Set
}

// FDFunc adapts a function to FDSource.
type FDFunc func() ids.Set

// Trusted implements FDSource.
func (f FDFunc) Trusted() ids.Set { return f() }

// RecSA is the per-processor state of Algorithm 3.1. It is a pure step
// machine: the owner calls Step on its timer and HandleMessage on receipt,
// then collects outgoing messages with OutgoingMessage.
type RecSA struct {
	self ids.ID
	fd   FDSource
	opts Options

	config  Config
	prp     Notification
	all     bool
	allSeen map[ids.ID]bool
	views   map[ids.ID]*peerView
	// lastDone remembers the notification whose replacement this
	// processor most recently completed (2→0), so that the bounded tail
	// of its own stale broadcasts cannot be re-adopted and regenerated
	// forever. One slot suffices: estab() already refuses to re-propose
	// the installed configuration.
	lastDone      Notification
	lastDoneValid bool
	// stuckSteps counts consecutive steps in which the system's maximal
	// notification equals lastDone while this processor is idle — the
	// signature of peers waiting on a completion this processor recorded
	// under corrupted state. After Patience steps lastDone is cleared so
	// the cycle can re-run to a joint completion.
	stuckSteps int

	// memo caches what the layers above ask for many times between two
	// changes of this processor's state (DESIGN.md §3, "What a step may
	// cache").
	memo derived

	metrics Metrics
}

// derived holds the values of participants, NoReco and chsConfig for one
// trusted set and the config, prp and stored views as they are now: pure
// functions of exactly that. The trusted set is the failure detector's, so
// it is compared on every read; every method that writes config, prp or a
// view — Step, HandleMessage, Estab, Participate, CorruptState — calls
// invalidate.
type derived struct {
	ok   bool    // part belongs to fd and the present state
	fd   ids.Set // FD[i] ∪ {self} the values were computed for
	part ids.Set

	noRecoOK, noReco bool
	chsOK            bool
	chs              Config
}

func (r *RecSA) invalidate() { r.memo = derived{} }

// New constructs the layer for processor self. initial is the starting
// config value: ConfigOf(...) for a coherent start, Bottom() to bootstrap
// via brute-force stabilization, NotParticipant() for a joining processor.
func New(self ids.ID, fd FDSource, initial Config, opts Options) *RecSA {
	if opts.DegreeGap <= 0 {
		opts.DegreeGap = 2
	}
	if opts.Patience <= 0 {
		opts.Patience = 24
	}
	return &RecSA{
		self:    self,
		fd:      fd,
		opts:    opts,
		config:  initial,
		prp:     DefaultNtf(),
		allSeen: make(map[ids.ID]bool),
		views:   make(map[ids.ID]*peerView),
	}
}

// Metrics returns a copy of the event counters.
func (r *RecSA) Metrics() Metrics { return r.metrics }

// Self returns the owning processor's identifier.
func (r *RecSA) Self() ids.ID { return r.self }

// CurrentConfig returns the raw config[i] value.
func (r *RecSA) CurrentConfig() Config { return r.config }

// Prp returns the processor's own notification (for tests and tracing).
func (r *RecSA) Prp() Notification { return r.prp }

// IsParticipant reports whether this processor broadcasts (config ≠ ]).
func (r *RecSA) IsParticipant() bool { return r.config.IsParticipant() }

// view returns the stored view of peer k, creating the boot-default entry
// on first reference (line 31's interrupt initialization).
func (r *RecSA) view(k ids.ID) *peerView {
	v, ok := r.views[k]
	if !ok {
		v = freshPeerView()
		r.views[k] = v
	}
	return v
}

// trustedSet returns FD[i] ∪ {self}.
func (r *RecSA) trustedSet() ids.Set {
	return r.fd.Trusted().Add(r.self)
}

// participants computes FD[i].part = {pj ∈ FD[i] : config[j] ≠ ]}, using
// the processor's own config for its own entry. A peer counts as a
// participant only if something was actually received from it: the
// configSet macro overwrites all stored config entries, and without the
// received-evidence requirement a silent joiner would be mistaken for a
// participant after a brute-force install, deadlocking noReco().
func (r *RecSA) participants(fdSet ids.Set) ids.Set {
	if !r.memo.ok || !r.memo.fd.Equal(fdSet) {
		r.memo = derived{ok: true, fd: fdSet, part: r.computeParticipants(fdSet)}
	}
	return r.memo.part
}

func (r *RecSA) computeParticipants(fdSet ids.Set) ids.Set {
	return fdSet.Filter(func(j ids.ID) bool {
		if j == r.self {
			return r.config.IsParticipant()
		}
		v := r.view(j)
		return v.FDKnown && v.Config.IsParticipant()
	})
}

// Participants exposes the current participant set.
func (r *RecSA) Participants() ids.Set { return r.participants(r.trustedSet()) }

// PeerPart returns the participant set last reported by peer j (known is
// false when nothing was ever received from j). The recMA layer's core()
// computation consumes it.
func (r *RecSA) PeerPart(j ids.ID) (ids.Set, bool) {
	if j == r.self {
		return r.Participants(), true
	}
	v := r.view(j)
	return v.Part, v.FDKnown
}

// prpOf returns the stored notification for k (own value for self).
func (r *RecSA) prpOf(k ids.ID) Notification {
	if k == r.self {
		return r.prp
	}
	return r.view(k).Prp
}

// allOf returns the stored all flag for k.
func (r *RecSA) allOf(k ids.ID) bool {
	if k == r.self {
		return r.all
	}
	return r.view(k).All
}

// configOf returns the stored config for k.
func (r *RecSA) configOf(k ids.ID) Config {
	if k == r.self {
		return r.config
	}
	return r.view(k).Config
}

// degree is the paper's degree(k) = 2·phase + [all].
func (r *RecSA) degree(k ids.ID) int {
	d := 2 * r.prpOf(k).Phase
	if r.allOf(k) {
		d++
	}
	return d
}

// maxNtf returns the lexicographically largest non-default notification
// among the participants (self included), or ok=false when every
// notification is the default (the paper's ⊥ return).
func (r *RecSA) maxNtf(part ids.Set) (Notification, bool) {
	best := DefaultNtf()
	found := false
	part.Each(func(k ids.ID) {
		n := r.prpOf(k)
		if n.IsDefault() {
			return
		}
		if !found || best.Less(n) {
			best = n
			found = true
		}
	})
	return best, found
}

// properConfigs surveys the proper (non-], non-⊥) configuration sets held
// by the trusted processors: the first one met in identifier order, whether
// there are none, one or several distinct ones (n is 0, 1 or 2 — no caller
// distinguishes two from more), and whether any trusted processor holds ⊥.
func (r *RecSA) properConfigs(fdSet ids.Set) (first ids.Set, n int, anyBottom bool) {
	fdSet.Each(func(k ids.ID) {
		c := r.configOf(k)
		switch c.Kind {
		case KindBottom:
			anyBottom = true
		case KindSet:
			switch {
			case n == 0:
				first, n = c.Set, 1
			case !first.Equal(c.Set):
				n = 2
			}
		}
	})
	return first, n, anyBottom
}

// configSet is the paper's configSet(val) macro: overwrite every local
// config entry with val and clear all notifications (no local active
// notifications may survive).
func (r *RecSA) configSet(val Config) {
	r.config = val
	r.prp = DefaultNtf()
	r.all = false
	r.allSeen = make(map[ids.ID]bool)
	//repolint:allow determinism -- each pass writes only its own entry
	for _, v := range r.views {
		v.Config = val
		v.Prp = DefaultNtf()
		v.All = false
	}
}

// reset starts the brute-force configuration reset (configSet(⊥)).
func (r *RecSA) reset() {
	r.metrics.Resets++
	r.configSet(Bottom())
}

// same is the paper's same(k): k's most recently received participant set
// and notification match this processor's current ones.
func (r *RecSA) same(k ids.ID, part ids.Set) bool {
	v := r.view(k)
	return v.Part.Equal(part) && v.Prp.Equal(r.prp)
}

// echoNoAll is the paper's echoNoAll(k): k echoed this processor's current
// (part, prp).
func (r *RecSA) echoNoAll(k ids.ID, part ids.Set) bool {
	v := r.view(k)
	return v.Echo.Valid && v.Echo.Part.Equal(part) && v.Echo.Prp.Equal(r.prp)
}

// echoFull is the paper's echo(): every participant echoed the full
// (part, prp, all) triple currently held.
func (r *RecSA) echoFull(part ids.Set) bool {
	ok := true
	part.Each(func(k ids.ID) {
		if k == r.self || !ok {
			return
		}
		v := r.view(k)
		if !(v.Echo.Valid && v.Echo.Part.Equal(part) && v.Echo.Prp.Equal(r.prp) && v.Echo.All == r.all) {
			ok = false
		}
	})
	return ok
}

// allSeenFull is the paper's allSeen() macro: every participant's all
// indication has been recorded.
func (r *RecSA) allSeenFull(part ids.Set) bool {
	ok := true
	part.Each(func(k ids.ID) {
		if !ok {
			return
		}
		if k == r.self {
			if !r.all {
				ok = false
			}
			return
		}
		if !r.allSeen[k] {
			ok = false
		}
	})
	return ok
}

// Step executes one iteration of the do-forever loop (lines 24–29).
func (r *RecSA) Step() {
	fdSet := r.trustedSet()
	part := r.participants(fdSet)
	r.step(fdSet, part)
	r.invalidate()
}

func (r *RecSA) step(fdSet, part ids.Set) {
	r.cleanNonParticipants(part)
	r.cleanType1(part)
	if r.detectStale(fdSet, part) {
		r.reset()
		// A reset empties the notification state; fall through to the
		// brute-force branch below with recomputed participants (every
		// trusted entry now holds ⊥, hence everyone is a participant).
		part = r.computeParticipants(fdSet)
	}

	if _, hasNtf := r.maxNtf(part); !hasNtf || r.config.Kind == KindBottom {
		// No active notification — or this processor is resetting, in
		// which case the reset takes precedence over any replacement
		// residue still visible in the stored views.
		r.bruteForce(fdSet, part)
		return
	}
	if !r.config.IsParticipant() {
		// Non-participants only monitor during delicate replacement.
		return
	}
	r.delicate(part)
}

// cleanNonParticipants implements line 25's "clean after crashes": entries
// of processors outside the participant set revert to (], dfltNtf).
func (r *RecSA) cleanNonParticipants(part ids.Set) {
	//repolint:allow determinism -- each pass writes only its own entry and deletes its own allSeen key
	for k, v := range r.views {
		if !part.Contains(k) {
			v.Config = NotParticipant()
			v.Prp = DefaultNtf()
			v.All = false
			delete(r.allSeen, k)
		}
	}
}

// cleanType1 removes type-1 stale information: notifications in phase 0
// must not carry a set (Claim 3.1: line 25 removes them locally).
func (r *RecSA) cleanType1(part ids.Set) {
	if r.prp.Phase == 0 && r.prp.HasSet {
		r.metrics.StaleType1++
		r.prp = DefaultNtf()
	}
	if !r.config.IsParticipant() && !r.prp.IsDefault() {
		// A non-participant never takes part in replacement; a
		// non-default own notification can only be corruption.
		r.metrics.StaleType1++
		r.prp = DefaultNtf()
	}
	if r.config.Kind == KindBottom && !r.prp.IsDefault() {
		// A resetting processor cannot be replacing configurations:
		// configSet(⊥) wipes notifications, so this combination only
		// arises from corruption (e.g., a stale notification adopted
		// mid-reset) and would trap the processor in the delicate
		// branch, starving its own reset forever.
		r.metrics.StaleType1++
		r.prp = DefaultNtf()
	}
	//repolint:allow determinism -- each pass writes only its own entry and bumps a commutative counter
	for _, v := range r.views {
		if v.Prp.Phase == 0 && v.Prp.HasSet {
			r.metrics.StaleType1++
			v.Prp = DefaultNtf()
		}
		if v.Config.Kind == KindBottom && !v.Prp.IsDefault() {
			r.metrics.StaleType1++
			v.Prp = DefaultNtf()
		}
	}
	_ = part
}

// detectStale evaluates the type-2/3/4 predicates of Definition 3.1 and
// reports whether a reset is required.
func (r *RecSA) detectStale(fdSet, part ids.Set) bool {
	// Type-2: a config field holding the illegal empty set, or a
	// participant reporting ⊥ while this processor is not resetting —
	// the reset wave must reach processors busy with a (possibly stuck)
	// delicate replacement too, so this fires regardless of
	// notifications.
	stale := false
	fdSet.Each(func(k ids.ID) {
		c := r.configOf(k)
		if c.Kind == KindSet && c.Set.Empty() {
			stale = true
		}
		if k != r.self && c.Kind == KindBottom && r.config.Kind != KindBottom {
			stale = true
		}
	})
	if stale {
		r.metrics.StaleType2++
		return true
	}

	// Type-3a: notification degrees of two participants further apart
	// than the tolerated gap.
	var degrees []int
	part.Each(func(k ids.ID) {
		if !r.prpOf(k).IsDefault() || r.allOf(k) {
			degrees = append(degrees, r.degree(k))
		}
	})
	lo, hi := 0, 0
	for i, d := range degrees {
		if i == 0 || d < lo {
			lo = d
		}
		if i == 0 || d > hi {
			hi = d
		}
	}
	if len(degrees) > 1 && hi-lo > r.opts.DegreeGap {
		r.metrics.StaleType3++
		return true
	}

	// Type-3b: a participant one phase ahead that was never recorded in
	// allSeen — impossible in a clean execution (the echo mechanism
	// guarantees the transitioning peer was seen; see DESIGN.md §4).
	if x := r.prp.Phase; x == 1 || x == 2 {
		ahead := false
		part.Each(func(k ids.ID) {
			if k == r.self {
				return
			}
			n := r.prpOf(k)
			// A default notification means "no proposal", not a
			// phase-0 step of the automaton; counting it here would
			// regenerate resets whenever a stale phase-2 notification
			// is re-adopted next to already-idle participants.
			if !n.IsDefault() && n.Phase == (x+1)%3 && !r.allSeen[k] {
				ahead = true
			}
		})
		if ahead {
			r.metrics.StaleType3++
			return true
		}
	}

	// Type-3c: someone is at phase 2 while more than one distinct
	// proposal set is in play.
	phase2 := false
	part.Each(func(k ids.ID) {
		if r.prpOf(k).Phase == 2 {
			phase2 = true
		}
	})
	if phase2 {
		var sets []ids.Set
		part.Each(func(k ids.ID) {
			n := r.prpOf(k)
			if n.IsDefault() || !n.HasSet {
				return
			}
			for _, s := range sets {
				if s.Equal(n.Set) {
					return
				}
			}
			sets = append(sets, n.Set)
		})
		if len(sets) > 1 {
			r.metrics.StaleType3++
			return true
		}
	}

	// Type-4: the configuration contains no active participant while the
	// membership view is stable (guards against false positives from a
	// still-converging failure detector).
	if r.config.Kind == KindSet && !r.config.Set.Empty() {
		stableView := true
		part.Each(func(k ids.ID) {
			if k == r.self || !stableView {
				return
			}
			v := r.view(k)
			if !v.FDKnown || !v.FD.Equal(fdSet) || !v.Part.Equal(part) {
				stableView = false
			}
		})
		if stableView && r.config.Set.Intersect(part).Empty() {
			r.metrics.StaleType4++
			return true
		}
	}
	return false
}

// bruteForce is the no-notification branch (lines 25–26): nullify on
// conflict, and complete a reset once the membership view is uniform.
func (r *RecSA) bruteForce(fdSet, part ids.Set) {
	if _, n, _ := r.properConfigs(fdSet); n > 1 {
		r.reset()
		return
	}
	if r.config.Kind != KindBottom {
		return
	}
	// Reset in progress: wait until all broadcasting participants report
	// the same trusted set, then adopt it as the configuration. By the
	// end every active processor (joiners included) is a participant.
	uniform := true
	part.Each(func(k ids.ID) {
		if k == r.self || !uniform {
			return
		}
		v := r.view(k)
		if !v.FDKnown || !v.FD.Equal(fdSet) {
			uniform = false
		}
	})
	if uniform {
		r.metrics.BruteInstalls++
		r.configSet(ConfigOf(fdSet))
	}
}

// delicate runs one iteration of the three-phase replacement automaton
// (Figure 2) for a participant, given that at least one notification is
// active.
func (r *RecSA) delicate(part ids.Set) {
	// Phase-completion adoption for the 2→0 edge: once any participant
	// whose all-indication we recorded has returned to the default
	// notification, the whole system necessarily completed phase 2 (the
	// echo mechanism lets a processor exit only after every other
	// participant acknowledged its final state), so this processor may
	// complete as well. Without this rule the first exiting processor
	// would destroy the same(k) condition the laggards still wait on.
	if r.prp.Phase == 2 {
		done := false
		part.Each(func(k ids.ID) {
			if k != r.self && r.prpOf(k).IsDefault() && r.allSeen[k] {
				done = true
			}
		})
		if done {
			r.metrics.PhaseTransitions++
			r.lastDone = r.prp
			r.lastDoneValid = true
			r.prp = DefaultNtf()
			r.all = false
			r.allSeen = make(map[ids.ID]bool)
			return
		}
	}

	// Patience escape: if the system's maximal notification has equaled
	// this processor's lastDone record for many steps while it sits
	// idle, the record stems from a corrupted completion — clear it so
	// the cycle below can re-run jointly.
	if m, ok := r.maxNtf(part); ok && r.prp.IsDefault() && r.lastDoneValid && r.lastDone.Equal(m) {
		r.stuckSteps++
		if r.stuckSteps > r.opts.Patience {
			r.lastDoneValid = false
			r.stuckSteps = 0
		}
	} else {
		r.stuckSteps = 0
	}

	// Phase adoption ("case 1: prp[i] ← maxNtf()"): converge to the
	// lexicographically largest notification; adopting a phase-2
	// notification also installs its set, since the installation step of
	// the unison transition has already been passed by the leaders.
	if m, ok := r.maxNtf(part); ok && r.prp.Less(m) && !(r.lastDoneValid && r.lastDone.Equal(m)) {
		r.metrics.Adoptions++
		r.prp = m
		if m.Phase == 2 {
			r.config = ConfigOf(m.Set)
		}
		r.all = false
		r.allSeen = make(map[ids.ID]bool)
	}

	// all[i] ← everyone reports and echoes my current (part, prp).
	allNow := true
	part.Each(func(k ids.ID) {
		if k == r.self || !allNow {
			return
		}
		if !(r.echoNoAll(k, part) && r.same(k, part)) {
			allNow = false
		}
	})
	r.all = allNow

	// Record every participant whose all indication (with matching
	// state) has been received.
	part.Each(func(k ids.ID) {
		if k == r.self {
			return
		}
		if r.view(k).All && r.same(k, part) {
			r.allSeen[k] = true
		}
	})

	// Unison transition: everyone echoed my full state and everyone's
	// all indication was seen.
	if !(r.all && r.echoFull(part) && r.allSeenFull(part)) {
		return
	}
	r.metrics.PhaseTransitions++
	r.allSeen = make(map[ids.ID]bool)
	r.all = false
	switch r.prp.Phase {
	case 1:
		// Install the jointly selected proposal.
		r.prp.Phase = 2
		r.config = ConfigOf(r.prp.Set)
		r.metrics.DelicateInstalls++
	case 2:
		// Replacement done: return to monitoring.
		r.lastDone = r.prp
		r.lastDoneValid = true
		r.prp = DefaultNtf()
	default:
		// Phase 0 with an active notification cannot survive adoption;
		// treat as stale.
		r.prp = DefaultNtf()
	}
}

// --- Interface functions (lines 10–14) ---

// chsConfig returns the single configuration value present in the system
// (excluding ]), or Bottom when there is none (the complete-collapse case,
// which starts a reset when adopted).
func (r *RecSA) chsConfig() Config {
	fdSet := r.trustedSet()
	r.participants(fdSet) // the memo now belongs to fdSet
	if !r.memo.chsOK {
		r.memo.chs, r.memo.chsOK = r.computeChsConfig(fdSet), true
	}
	return r.memo.chs
}

func (r *RecSA) computeChsConfig(fdSet ids.Set) Config {
	first, n, anyBottom := r.properConfigs(fdSet)
	switch {
	case anyBottom || n == 0:
		return Bottom()
	default:
		return ConfigOf(first)
	}
}

// NoReco reports that no reconfiguration activity is observable: the
// processor is recognized by all trusted participants, exactly one proper
// configuration exists, the participant views are stable, no reset is in
// progress, and no notification is active. (DESIGN.md §4 note 1: this is
// the ¬(invariant-violation) reading of the paper's line 12.)
func (r *RecSA) NoReco() bool {
	fdSet := r.trustedSet()
	part := r.participants(fdSet)
	if !r.memo.noRecoOK {
		r.memo.noReco, r.memo.noRecoOK = r.computeNoReco(fdSet, part), true
	}
	return r.memo.noReco
}

func (r *RecSA) computeNoReco(fdSet, part ids.Set) bool {
	if !r.prp.IsDefault() {
		return false
	}
	only, n, anyBottom := r.properConfigs(fdSet)
	if anyBottom || n != 1 {
		return false
	}
	if only.Intersect(part).Empty() {
		// The quorum configuration must contain at least one active
		// participant (otherwise either the configuration collapsed —
		// type-4 — or this processor simply has not heard from the
		// system yet); either way reconfiguration activity is pending.
		return false
	}
	ok := true
	part.Each(func(k ids.ID) {
		if k == r.self || !ok {
			return
		}
		v := r.view(k)
		if !v.FDKnown || !v.FD.Contains(r.self) {
			ok = false // condition (1): pi not recognized by a trusted participant
			return
		}
		if !v.Part.Equal(part) {
			ok = false // condition (3): participant sets not stabilized
			return
		}
		if !v.Prp.IsDefault() {
			ok = false // condition (5): delicate replacement in progress
			return
		}
		if r.config.IsParticipant() && (!v.Echo.Valid || !v.Echo.Part.Equal(part)) {
			ok = false // peers have not yet echoed this participant's view
			return
		}
	})
	return ok
}

// GetConfig returns the current quorum configuration. During stable periods
// this is the single system-wide configuration; during replacement it is
// the local config[i] (which may be ⊥ or ] — callers check Kind).
func (r *RecSA) GetConfig() Config {
	if r.NoReco() {
		return r.chsConfig()
	}
	return r.config
}

// Quorum returns the current proper configuration set, if one is in place.
func (r *RecSA) Quorum() (ids.Set, bool) {
	c := r.GetConfig()
	if c.Kind == KindSet && !c.Set.Empty() {
		return c.Set, true
	}
	return ids.Set{}, false
}

// Estab requests the replacement of the current configuration with set
// (line 13). Only participants may propose; the request is ignored while a
// reconfiguration is in progress or when set is empty or equals the current
// configuration. It reports whether the proposal was accepted.
func (r *RecSA) Estab(set ids.Set) bool {
	if set.Empty() || !r.config.IsParticipant() || !r.NoReco() {
		r.metrics.EstabRejected++
		return false
	}
	if r.config.Kind == KindSet && r.config.Set.Equal(set) {
		r.metrics.EstabRejected++
		return false
	}
	r.metrics.EstabAccepted++
	r.prp = Notification{Phase: 1, HasSet: true, Set: set}
	r.all = false
	r.allSeen = make(map[ids.ID]bool)
	r.invalidate()
	return true
}

// Participate turns a joining processor into a participant (line 14),
// adopting the single system configuration. It reports success.
func (r *RecSA) Participate() bool {
	if !r.NoReco() {
		r.metrics.ParticipateDenied++
		return false
	}
	r.metrics.ParticipateOK++
	r.config = r.chsConfig()
	r.invalidate()
	return true
}

// OutgoingMessage builds the line-29 broadcast payload for peer `to`, or
// ok=false when this processor must stay silent (non-participant).
func (r *RecSA) OutgoingMessage(to ids.ID) (Message, bool) {
	if !r.config.IsParticipant() {
		return Message{}, false
	}
	fdSet := r.trustedSet()
	part := r.participants(fdSet)
	v := r.view(to)
	return Message{
		FD:     fdSet,
		Part:   part,
		Config: r.config,
		Prp:    r.prp,
		All:    r.all,
		Echo: Echo{
			Valid: v.FDKnown,
			Part:  v.Part,
			Prp:   v.Prp,
			All:   v.All,
		},
	}, true
}

// HandleMessage stores a received broadcast (line 30).
func (r *RecSA) HandleMessage(from ids.ID, m Message) {
	if from == r.self || !from.Valid() {
		return
	}
	r.invalidate()
	v := r.view(from)
	v.FD = m.FD
	v.FDKnown = true
	v.Part = m.Part
	v.Config = m.Config
	v.Prp = m.Prp
	v.All = m.All
	v.Echo = m.Echo
}

// CorruptState randomizes the entire recSA state — the transient-fault
// injection hook for the stabilization experiments. universe bounds the
// identifiers that corrupted sets may mention.
func (r *RecSA) CorruptState(rng *rand.Rand, universe ids.Set) {
	r.invalidate()
	randomSet := func() ids.Set {
		out := ids.Set{}
		universe.Each(func(id ids.ID) {
			if rng.Intn(2) == 0 {
				out = out.Add(id)
			}
		})
		return out
	}
	randomConfig := func() Config {
		switch rng.Intn(4) {
		case 0:
			return Bottom()
		case 1:
			return ConfigOf(randomSet())
		case 2:
			return ConfigOf(ids.Set{}) // illegal empty set
		default:
			return ConfigOf(randomSet())
		}
	}
	randomNtf := func() Notification {
		n := Notification{Phase: rng.Intn(3)}
		if rng.Intn(2) == 0 {
			n.HasSet = true
			n.Set = randomSet()
		}
		return n
	}
	r.config = randomConfig()
	r.prp = randomNtf()
	r.lastDone = randomNtf()
	r.lastDoneValid = rng.Intn(2) == 0
	r.all = rng.Intn(2) == 0
	r.allSeen = make(map[ids.ID]bool)
	universe.Each(func(id ids.ID) {
		if rng.Intn(2) == 0 {
			r.allSeen[id] = true
		}
	})
	order := make([]ids.ID, 0, len(r.views))
	for k := range r.views {
		order = append(order, k)
	}
	slices.Sort(order)
	for _, k := range order {
		v := r.views[k]
		v.Config = randomConfig()
		v.Prp = randomNtf()
		v.All = rng.Intn(2) == 0
		v.Echo = Echo{Valid: rng.Intn(2) == 0, Part: randomSet(), Prp: randomNtf(), All: rng.Intn(2) == 0}
		v.FD = randomSet()
		v.FDKnown = rng.Intn(2) == 0
		v.Part = randomSet()
	}
}
