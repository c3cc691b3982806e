//! Protocol baselines as backends: population protocols behind the same
//! [`Backend`] interface as the Lotka–Volterra kernels, so protocol-vs-LV
//! comparisons (E11, E15/E16 threshold sweeps) run through one registry and
//! one Monte-Carlo harness.
//!
//! Five protocol baselines are built in:
//!
//! * [`ApproxMajorityBackend`] — the 3-state approximate-majority protocol
//!   of Angluin–Aspnes–Eisenstat (`"approx-majority"`);
//! * [`ExactMajorityBackend`] — the 4-state exact-majority protocol of
//!   Draief–Vojnović / Mertzios et al. (`"exact-majority"`): always correct
//!   for any non-zero gap, at `Θ(n²)` expected interactions;
//! * [`CzyzowiczLvBackend`] — the two-state discrete Lotka–Volterra
//!   dynamics of Czyzowicz et al. (`"czyzowicz-lv"`): the proportional law
//!   `P(majority wins) = a/n`, so high-probability consensus needs a
//!   *linear* gap;
//! * [`AnnihilationLvBackend`] — the *self-destructive* discrete LV
//!   dynamics (`"annihilation-lv"`): a competitive encounter destroys both
//!   participants, the gap is invariant, and any non-zero gap decides
//!   correctly in `Θ(n log n)` interactions;
//! * [`CzyzowiczKBackend`] — the `k`-opinion Czyzowicz conversion dynamics
//!   (`"czyzowicz-lv-k"`), the `k`-species protocol baseline over
//!   [`Population`](lv_lotka::Population) counts.
//!
//! # Batched vs agent-list execution
//!
//! The default protocol backends execute **count-based and batched**
//! ([`lv_protocols::CountedSimulation`]): an epoch samples a collision-free
//! batch of `Θ(√n)` interactions from the birthday-bound distribution,
//! applies the transitions as count deltas via hypergeometric splits, and
//! resolves the one colliding interaction exactly. Epochs are equal *in
//! distribution* to the same number of per-interaction steps, but consume a
//! different RNG stream and report aggregated [`StepRecord`]s
//! (`event = None`, `firings = epoch length` — the same vocabulary as
//! tau-leaping), so agreement with the agent-list stepper is statistical,
//! not bit-exact. Absorption — no schedulable pair can change any state —
//! is detected by an `O(#states²)` count check at epoch boundaries, which
//! subsumes the per-protocol monitors (committed consensus, exhausted
//! strong tokens) of the agent-list path.
//!
//! The legacy agent-list backends are kept and registered under `-agents`
//! names ([`ApproxMajorityAgentsBackend`], [`ExactMajorityAgentsBackend`],
//! [`CzyzowiczLvAgentsBackend`]) for bit-exact runs against hand-driven
//! [`ProtocolSimulation`] loops; [`Backend::batched`] reports which
//! execution mode a backend uses.
//!
//! Each execution mode is a `Stepper` that only advances its state and
//! reports absorption; the engine's one run loop, `drive`, owns the stop
//! checks, the start of fewer than two agents, the interaction budget of
//! every step, observer dispatch and the report.
//!
//! [`StepRecord`]: crate::StepRecord

use crate::backend::{drive, Backend, Step, Stepper};
use crate::report::RunReport;
use crate::scenario::Scenario;
use lv_crn::StopReason;
use lv_lotka::PopulationEvent;
use lv_protocols::{
    ApproximateMajority, BridgeStep, BridgedConversionWalk, CountedDynamics, CountedSimulation,
    CzyzowiczLvProtocol, ExactMajority4State, FourState, Interaction, Opinion, PopulationProtocol,
    ProtocolSimulation, SelfDestructiveLvProtocol,
};
use rand::rngs::StdRng;

/// Populations below this size are single-stepped even by the batched
/// backends: birthday-bound batches hold only a handful of interactions
/// there (`E[ℓ] = Θ(√n)`), so the epoch set-up cost is not amortised — the
/// regime "near absorption" where batches degenerate.
const BATCH_MIN_POPULATION: u64 = 64;

/// Protocol-specific absorption bookkeeping for the generic agent-list
/// stepper: decides when the configuration is *absorbed* (no future
/// interaction can change any agent's state), optionally maintaining
/// incremental state from the observed interactions.
///
/// Without this exit, an unsatisfiable stop condition with no budget would
/// spin forever on inert interactions — the LV backends escape the same
/// situation through their zero-propensity absorption check. (The counted
/// path needs no monitors: it checks pair inertness over the counts in
/// `O(#states²)`.)
trait ProtocolMonitor<P: PopulationProtocol> {
    /// Whether the current configuration is absorbed.
    fn absorbed(&self, sim: &ProtocolSimulation<P>) -> bool;

    /// Observes one applied interaction (for incremental bookkeeping).
    fn observe(&mut self, _interaction: &Interaction<P::State>) {}
}

/// Absorption by committed consensus: every agent outputs the same opinion.
/// Correct for protocols where any mixed-output configuration can still
/// react (approximate majority, the two-state Czyzowicz dynamics). O(1) via
/// the incrementally maintained committed counts.
struct CommittedConsensus;

impl<P: PopulationProtocol> ProtocolMonitor<P> for CommittedConsensus {
    fn absorbed(&self, sim: &ProtocolSimulation<P>) -> bool {
        let (a, b) = sim.opinion_counts();
        a + b == sim.population() && (a == 0 || b == 0)
    }
}

/// Absorption for the 4-state exact-majority protocol: every transition
/// needs a strong (token-carrying) agent, so the chain is absorbed once the
/// strong tokens are exhausted (possible only from a tied start, since the
/// strong-A/strong-B difference is invariant) or once one opinion has died
/// out. The strong count is maintained in O(1) from the interactions —
/// cancellation `(StrongA, StrongB) → (WeakA, WeakB)` is the only
/// strong-consuming transition.
struct StrongTokens {
    strongs: u64,
}

impl ProtocolMonitor<ExactMajority4State> for StrongTokens {
    fn absorbed(&self, sim: &ProtocolSimulation<ExactMajority4State>) -> bool {
        let (a, b) = sim.opinion_counts();
        self.strongs == 0 || a == 0 || b == 0
    }

    fn observe(&mut self, interaction: &Interaction<FourState>) {
        if matches!(
            (interaction.initiator_before, interaction.responder_before),
            (FourState::StrongA, FourState::StrongB) | (FourState::StrongB, FourState::StrongA)
        ) {
            self.strongs -= 2;
        }
    }
}

/// Runs any two-opinion [`PopulationProtocol`] as an execution backend with
/// the legacy *agent-list* stepper: the scenario's initial configuration
/// `(a, b)` seeds `a` agents with opinion A and `b` with opinion B, each
/// pairwise interaction counts as one event, and the reported state is the
/// pair of *committed* counts `(#output A, #output B)` read through
/// `PopulationProtocol::output` (undecided agents are internal). The model's
/// rates are ignored ([`Backend::models_kinetics`] is `false` on all
/// protocol backends).
fn run_two_opinion_protocol<P, M>(
    protocol: &P,
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
    monitor: M,
) -> RunReport
where
    P: PopulationProtocol,
    M: ProtocolMonitor<P>,
{
    assert_eq!(
        scenario.species_count(),
        2,
        "the {name} backend runs two-species scenarios only"
    );
    let initial = scenario.initial();
    drive(name, scenario, || AgentList {
        sim: ProtocolSimulation::new(protocol, initial.count(0), initial.count(1)),
        protocol,
        monitor,
        rng,
        opinions: [0; 2],
    })
}

struct AgentList<'a, P: PopulationProtocol, M> {
    sim: ProtocolSimulation<'a, P>,
    protocol: &'a P,
    monitor: M,
    rng: &'a mut StdRng,
    opinions: [u64; 2],
}

impl<P: PopulationProtocol, M: ProtocolMonitor<P>> Stepper for AgentList<'_, P, M> {
    const PAIRWISE: bool = true;

    fn advance(&mut self, _budget: u64) -> Result<Step<'_>, StopReason> {
        if self.monitor.absorbed(&self.sim) {
            return Err(StopReason::Absorbed);
        }
        let interaction = self.sim.step(self.rng);
        self.monitor.observe(&interaction);
        let (a, b) = self.sim.opinion_counts();
        self.opinions = [a, b];
        // Protocol rules may change either agent — the exact-majority
        // strong-recruits-weak rule flips the *initiator* when the weak
        // agent is scheduled first — so `classify` considers both sides.
        let protocol = self.protocol;
        let event = classify(
            protocol.output(interaction.initiator_before).map(species),
            protocol.output(interaction.initiator_after).map(species),
            protocol.output(interaction.responder_before).map(species),
            protocol.output(interaction.responder_after).map(species),
        );
        Ok(Step {
            event,
            counts: &self.opinions,
            time: self.sim.interactions() as f64,
            fired: 1,
        })
    }
}

/// Runs compiled [`CountedDynamics`] as an execution backend: count-based
/// state, batched epochs above [`BATCH_MIN_POPULATION`] agents, exact
/// single-stepping below it and whenever a sampled epoch would overrun the
/// interaction budget. Single steps report classified per-event records
/// exactly like the agent-list path; epochs report one aggregated record
/// (`event = None`, `firings` = epoch length).
fn run_counted(
    dynamics: &CountedDynamics,
    name: &'static str,
    scenario: &Scenario,
    rng: &mut StdRng,
) -> RunReport {
    assert_eq!(
        scenario.species_count(),
        dynamics.species_count(),
        "the {name} backend cannot run {}-species scenarios",
        scenario.species_count()
    );
    drive(name, scenario, || Counted {
        sim: CountedSimulation::new(dynamics, scenario.initial().counts()),
        dynamics,
        rng,
        opinions: vec![0; dynamics.species_count()],
    })
}

struct Counted<'a> {
    sim: CountedSimulation<'a>,
    dynamics: &'a CountedDynamics,
    rng: &'a mut StdRng,
    opinions: Vec<u64>,
}

impl Stepper for Counted<'_> {
    const PAIRWISE: bool = true;

    fn advance(&mut self, budget: u64) -> Result<Step<'_>, StopReason> {
        if self.sim.is_absorbed() {
            return Err(StopReason::Absorbed);
        }
        let epoch = if self.sim.total() >= BATCH_MIN_POPULATION {
            self.sim.step_epoch(self.rng, budget)
        } else {
            None
        };
        // A refused epoch would have overrun the budget; the run ends within
        // `budget` interactions either way, so it finishes one exact
        // interaction at a time (no bias in the truncated prefix).
        let (event, fired) = match epoch {
            Some(fired) => (None, fired),
            None => {
                let interaction = self.sim.step(self.rng);
                let event = classify(
                    self.dynamics.output(interaction.initiator_before),
                    self.dynamics.output(interaction.initiator_after),
                    self.dynamics.output(interaction.responder_before),
                    self.dynamics.output(interaction.responder_after),
                );
                (event, 1)
            }
        };
        self.sim.opinion_counts_into(&mut self.opinions);
        Ok(Step {
            event,
            counts: &self.opinions,
            time: self.sim.interactions() as f64,
            fired,
        })
    }
}

/// Runs the conversion dynamics through the diffusion-bridged count walk of
/// [`BridgedConversionWalk`]: large blocks of conversions advanced as
/// binomial bridges away from the boundaries (reported as aggregated
/// records, `event = None`, `firings` = block interactions), exact
/// geometric-plus-conversion steps inside the boundary band (classified as
/// competitive attacks when they resolve a single interaction), and exact
/// budget truncation — an inert stretch cut at the budget freezes the
/// counts, so `max_events` is honored to the interaction, exactly like the
/// epoch refusal of [`run_counted`].
fn run_bridged(name: &'static str, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
    drive(name, scenario, || Bridged {
        walk: BridgedConversionWalk::new(scenario.initial().counts()),
        rng,
    })
}

struct Bridged<'a> {
    walk: BridgedConversionWalk,
    rng: &'a mut StdRng,
}

impl Stepper for Bridged<'_> {
    const PAIRWISE: bool = true;

    fn advance(&mut self, budget: u64) -> Result<Step<'_>, StopReason> {
        if self.walk.is_absorbed() {
            return Err(StopReason::Absorbed);
        }
        let step = self.walk.advance(self.rng, budget);
        let event = match step {
            BridgeStep::Exact {
                fired: 1,
                attacker,
                victim,
            } => Some(PopulationEvent::Interspecific { attacker, victim }),
            _ => None,
        };
        Ok(Step {
            event,
            counts: self.walk.counts(),
            time: self.walk.interactions() as f64,
            fired: step.fired(),
        })
    }
}

fn species(opinion: Opinion) -> usize {
    match opinion {
        Opinion::A => 0,
        Opinion::B => 1,
    }
}

/// Maps one interaction onto the LV event vocabulary by output transitions
/// (species indices): cancellation and direct conversion are competitive
/// attacks, recruitment of an undecided agent is a birth, death of a
/// committed agent against a rival (the annihilation dynamics) is also a
/// competitive attack, anything else unclassified. Whichever agent's output
/// changed determines the class — the other agent is the attacker/recruiter
/// — so conversions count identically no matter which of the pair the
/// scheduler drew as initiator.
fn classify(
    initiator_before: Option<usize>,
    initiator_after: Option<usize>,
    responder_before: Option<usize>,
    responder_after: Option<usize>,
) -> Option<PopulationEvent> {
    if responder_before != responder_after {
        classify_transition(initiator_before, responder_before, responder_after)
    } else if initiator_before != initiator_after {
        classify_transition(responder_before, initiator_before, initiator_after)
    } else {
        None
    }
}

/// Classifies one agent's output transition given the unchanged `other`
/// agent of the pair.
fn classify_transition(
    other: Option<usize>,
    before: Option<usize>,
    after: Option<usize>,
) -> Option<PopulationEvent> {
    match (other, before, after) {
        // (X, Y) → (X, blank): X cancelled Y.
        (Some(attacker), Some(victim), None) if attacker != victim => {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        // (X, blank) → (X, X): X recruited a blank.
        (Some(opinion), None, Some(recruited)) if opinion == recruited => {
            Some(PopulationEvent::Birth(opinion))
        }
        // (X, Y) → (X, X): X converted Y directly (Czyzowicz predation, the
        // exact-majority strong-recruits-weak rule).
        (Some(attacker), Some(victim), Some(converted))
            if attacker != victim && converted == attacker =>
        {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        _ => None,
    }
}

/// The 3-state approximate-majority protocol of Angluin–Aspnes–Eisenstat as
/// an execution backend for *two-species* scenarios, in count-based batched
/// mode (see the [module docs](self)).
///
/// The backend is a baseline, not a Lotka–Volterra simulator: it reads only
/// the scenario's initial configuration `(a, b)` — `a` agents with opinion A,
/// `b` with opinion B — and its stop budgets; the model's rates are ignored
/// ([`Backend::models_kinetics`] is `false`). Each pairwise interaction
/// counts as one event, and the reported state is the pair of *committed*
/// counts `(#A, #B)` (blank agents are internal). A committed count hitting
/// zero is irrevocable — that opinion can never reappear — so the consensus
/// semantics of the two-species stop conditions carry over: the survivor is
/// the protocol's decision.
///
/// For bit-exact agreement with hand-driven [`ProtocolSimulation`] loops use
/// [`ApproxMajorityAgentsBackend`] (`"approx-majority-agents"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxMajorityBackend;

impl Backend for ApproxMajorityBackend {
    fn name(&self) -> &'static str {
        "approx-majority"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["am", "3-state"]
    }

    fn description(&self) -> &'static str {
        "3-state approximate-majority protocol baseline (two-species, batched counts)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_counted(
            &CountedDynamics::from_protocol(&ApproximateMajority::new()),
            self.name(),
            scenario,
            rng,
        )
    }
}

/// The legacy agent-list stepper behind `"approx-majority"`, registered as
/// `"approx-majority-agents"`: bit-identical to a hand-driven
/// [`ProtocolSimulation`] loop on the same RNG stream — the reference the
/// batched [`ApproxMajorityBackend`] is cross-validated against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxMajorityAgentsBackend;

impl Backend for ApproxMajorityAgentsBackend {
    fn name(&self) -> &'static str {
        "approx-majority-agents"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["am-agents"]
    }

    fn description(&self) -> &'static str {
        "3-state approximate-majority baseline, per-interaction agent list (bit-exact legacy)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_two_opinion_protocol(
            &ApproximateMajority::new(),
            self.name(),
            scenario,
            rng,
            CommittedConsensus,
        )
    }
}

/// The 4-state exact-majority protocol of Draief–Vojnović / Mertzios et al.
/// as an execution backend for *two-species* scenarios, in count-based
/// batched mode.
///
/// The strong-token difference is invariant, so the protocol decides the
/// true initial majority for *any* non-zero gap — there is no threshold to
/// find — but pays `Θ(n²)` expected interactions when the gap is small
/// (Table 1, Section 2.2). Like every protocol baseline it ignores the
/// model's rates and reports committed opinion counts; a tied start can
/// exhaust its strong tokens and freeze in a mixed weak configuration,
/// which the count-level absorption check reports as an absorbed
/// (non-consensus) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMajorityBackend;

impl Backend for ExactMajorityBackend {
    fn name(&self) -> &'static str {
        "exact-majority"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["em", "4-state"]
    }

    fn description(&self) -> &'static str {
        "4-state exact-majority protocol baseline (always correct, ~n^2 interactions, batched)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_counted(
            &CountedDynamics::from_protocol(&ExactMajority4State::new()),
            self.name(),
            scenario,
            rng,
        )
    }
}

/// The legacy agent-list stepper behind `"exact-majority"`, registered as
/// `"exact-majority-agents"` (bit-exact, strong-token absorption monitor).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMajorityAgentsBackend;

impl Backend for ExactMajorityAgentsBackend {
    fn name(&self) -> &'static str {
        "exact-majority-agents"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["em-agents"]
    }

    fn description(&self) -> &'static str {
        "4-state exact-majority baseline, per-interaction agent list (bit-exact legacy)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let initial = scenario.initial();
        let strongs = initial.count(0) + initial.count(1);
        run_two_opinion_protocol(
            &ExactMajority4State::new(),
            self.name(),
            scenario,
            rng,
            StrongTokens { strongs },
        )
    }
}

/// The two-state discrete Lotka–Volterra dynamics of Czyzowicz et al.
/// (`(A, B) → (A, A)`, `(B, A) → (B, B)`) as an execution backend for
/// *two-species* scenarios, in count-based batched mode.
///
/// On a static population these conversions are an unbiased random walk in
/// the count of A, so the majority wins with probability exactly `a/n` —
/// the proportional law — and high-probability majority consensus needs a
/// gap *linear* in `n`, the baseline E15/E16's threshold sweeps contrast
/// with the paper's polylogarithmic self-destructive threshold.
#[derive(Debug, Clone, Copy, Default)]
pub struct CzyzowiczLvBackend;

impl Backend for CzyzowiczLvBackend {
    fn name(&self) -> &'static str {
        "czyzowicz-lv"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["cz", "2-state-lv"]
    }

    fn description(&self) -> &'static str {
        "2-state Czyzowicz et al. discrete LV baseline (proportional law, linear gap, batched)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_counted(
            &CountedDynamics::from_protocol(&CzyzowiczLvProtocol::new()),
            self.name(),
            scenario,
            rng,
        )
    }
}

/// The legacy agent-list stepper behind `"czyzowicz-lv"`, registered as
/// `"czyzowicz-lv-agents"` (bit-exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct CzyzowiczLvAgentsBackend;

impl Backend for CzyzowiczLvAgentsBackend {
    fn name(&self) -> &'static str {
        "czyzowicz-lv-agents"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["cz-agents"]
    }

    fn description(&self) -> &'static str {
        "2-state Czyzowicz et al. baseline, per-interaction agent list (bit-exact legacy)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_two_opinion_protocol(
            &CzyzowiczLvProtocol::new(),
            self.name(),
            scenario,
            rng,
            CommittedConsensus,
        )
    }
}

/// The *self-destructive* discrete Lotka–Volterra dynamics
/// (`(A, B) → (∅, ∅)`) as an execution backend for *two-species* scenarios,
/// in count-based batched mode.
///
/// Pairwise annihilation preserves the signed gap `a − b`, so the initial
/// majority wins for **any** non-zero gap — the population-protocol
/// rendition of the paper's claim that self-destructive interference
/// collapses the consensus threshold — and consensus (the minority's
/// committed count reaching zero) takes only `Θ(n log n)` interactions,
/// which keeps threshold sweeps tractable at `n = 10⁷` under batching,
/// unlike the `Θ(n²)` conversion dynamics of `"czyzowicz-lv"`. Destroyed
/// agents have no output, so a tied start annihilates completely (both
/// committed counts reach zero — mutual extinction, exactly like the
/// continuous model's `δ = 0` cancellation).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnihilationLvBackend;

impl Backend for AnnihilationLvBackend {
    fn name(&self) -> &'static str {
        "annihilation-lv"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["sd-lv", "annihilation"]
    }

    fn description(&self) -> &'static str {
        "self-destructive discrete LV baseline (gap-invariant annihilation, batched)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_counted(
            &CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new()),
            self.name(),
            scenario,
            rng,
        )
    }
}

/// The `k`-opinion Czyzowicz conversion dynamics as an execution backend
/// for scenarios over **any** `k ≥ 2` species — the `k`-species protocol
/// baseline, running directly over [`Population`](lv_lotka::Population)
/// counts in count-based batched mode.
///
/// One state per opinion; an initiator of a different opinion converts the
/// responder. Each pairwise conversion between species `i` and `j` is an
/// unbiased step in their counts, so species `i` wins the plurality contest
/// with probability exactly `cᵢ/n` — the `k`-species proportional law — and
/// plurality-margin thresholds scale *linearly*, the `k`-species contrast
/// to the paper's self-destructive amplification (E15's plurality sweeps).
#[derive(Debug, Clone, Copy, Default)]
pub struct CzyzowiczKBackend;

impl Backend for CzyzowiczKBackend {
    fn name(&self) -> &'static str {
        "czyzowicz-lv-k"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["cz-k", "k-opinion-lv"]
    }

    fn description(&self) -> &'static str {
        "k-opinion Czyzowicz conversion dynamics (k-species proportional law, batched)"
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_counted(
            &CountedDynamics::k_opinion_czyzowicz(scenario.species_count()),
            self.name(),
            scenario,
            rng,
        )
    }
}

/// The two-state Czyzowicz conversion dynamics executed by **diffusion-
/// bridged first-passage sampling** (`"czyzowicz-lv-bridged"`): the A-count
/// performs an unbiased ±1 walk on conversions, advanced in binomial-bridge
/// blocks away from the boundaries with a CLT-sampled interaction clock, and
/// stepped exactly (geometric inert stretch + fair-coin conversion) inside
/// the boundary-proximity band, so absorption is never approximated.
///
/// Agreement with `"czyzowicz-lv"` (counted) and `"czyzowicz-lv-agents"`
/// (agent list) is statistical — identical outcome laws, e.g. the exact
/// proportional law `P(A wins) = a/n`, on a different RNG stream — but
/// per-trial cost is `Õ(poly log n)` instead of the `Θ(n²)` interactions the
/// other execution modes must walk through, which is what pushes the
/// linear-gap-law sweeps of E16 to `n = 10⁷`. Both exact variants stay
/// registered for cross-validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CzyzowiczLvBridgedBackend;

impl Backend for CzyzowiczLvBridgedBackend {
    fn name(&self) -> &'static str {
        "czyzowicz-lv-bridged"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["cz-bridged"]
    }

    fn description(&self) -> &'static str {
        "2-state Czyzowicz baseline via diffusion-bridged first-passage sampling (polylog/trial)"
    }

    fn supports_species(&self, species: usize) -> bool {
        species == 2
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        assert_eq!(
            scenario.species_count(),
            2,
            "the {} backend cannot run {}-species scenarios",
            self.name(),
            scenario.species_count()
        );
        run_bridged(self.name(), scenario, rng)
    }
}

/// The `k`-opinion Czyzowicz conversion dynamics executed by diffusion-
/// bridged first-passage sampling (`"czyzowicz-lv-k-bridged"`): the
/// `(k−1)`-dimensional count walk is bridged per unordered species pair
/// (multinomial split of each block's conversions at the block-start pair
/// intensities, then a fair-coin binomial bridge per pair) under a
/// per-species boundary band, so no opinion's extinction is ever
/// approximated. See [`CzyzowiczLvBridgedBackend`] for the two-species
/// contract; `"czyzowicz-lv-k"` stays registered for cross-validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CzyzowiczKBridgedBackend;

impl Backend for CzyzowiczKBridgedBackend {
    fn name(&self) -> &'static str {
        "czyzowicz-lv-k-bridged"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["cz-k-bridged"]
    }

    fn description(&self) -> &'static str {
        "k-opinion Czyzowicz dynamics via per-pair diffusion bridging (polylog/trial)"
    }

    fn models_kinetics(&self) -> bool {
        false
    }

    fn batched(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        run_bridged(self.name(), scenario, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_crn::StopCondition;
    use lv_lotka::LvModel;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn all_protocol_backends() -> Vec<&'static dyn Backend> {
        vec![
            &ApproxMajorityBackend,
            &ExactMajorityBackend,
            &CzyzowiczLvBackend,
            &AnnihilationLvBackend,
            &CzyzowiczKBackend,
            &CzyzowiczLvBridgedBackend,
            &CzyzowiczKBridgedBackend,
            &ApproxMajorityAgentsBackend,
            &ExactMajorityAgentsBackend,
            &CzyzowiczLvAgentsBackend,
        ]
    }

    #[test]
    fn clear_majority_wins_and_reports_interactions() {
        let scenario = Scenario::majority(LvModel::default(), 400, 100);
        for backend in [
            &ApproxMajorityBackend as &dyn Backend,
            &ApproxMajorityAgentsBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(1));
            assert_eq!(report.backend, backend.name());
            assert!(report.consensus_reached(), "{}", backend.name());
            assert!(report.majority_won(), "{}", backend.name());
            assert!(report.events > 0, "{}", backend.name());
            let outcome = report.to_majority_outcome();
            assert!(outcome.majority_won());
        }
        // The agent-list path resolves every event: one step per event and
        // classified births/attacks for the derived view.
        let report = ApproxMajorityAgentsBackend.run(&scenario, &mut rng(1));
        assert_eq!(report.events, report.steps);
        let outcome = report.to_majority_outcome();
        assert!(outcome.individual_events > 0, "recruitments happened");
        assert!(outcome.competitive_events > 0, "cancellations happened");
        // The batched path aggregates: far fewer steps than events, and the
        // aggregated firings land in the unclassified counter (the
        // tau-leaping vocabulary).
        let report = ApproxMajorityBackend.run(&scenario, &mut rng(1));
        assert!(
            report.steps < report.events / 4,
            "batching did not aggregate: {} steps for {} events",
            report.steps,
            report.events
        );
        let counts = report.event_counts().unwrap();
        assert!(counts.unclassified > 0);
    }

    #[test]
    fn committed_counts_never_exceed_the_population() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let report = ApproxMajorityBackend.run(&scenario, &mut rng(2));
        assert!(report.max_population().unwrap() <= 50);
        assert!(report.final_state.total() <= 50);
    }

    #[test]
    fn event_budget_truncates_runs_exactly() {
        // Also on the batched path: a sampled epoch that would overrun the
        // budget falls back to single exact steps, so the event count is
        // exact, not epoch-granular.
        let scenario = Scenario::new(LvModel::default(), (500, 480))
            .with_stop(StopCondition::any_species_extinct().with_max_events(25));
        for backend in [
            &ApproxMajorityBackend as &dyn Backend,
            &ApproxMajorityAgentsBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(3));
            assert_eq!(
                report.reason,
                StopReason::MaxEventsReached,
                "{}",
                backend.name()
            );
            assert_eq!(report.events, 25, "{}", backend.name());
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        for backend in all_protocol_backends() {
            let a = backend.run(&scenario, &mut rng(4));
            let b = backend.run(&scenario, &mut rng(4));
            assert_eq!(a, b, "{}", backend.name());
        }
    }

    #[test]
    fn converged_runs_absorb_under_unsatisfiable_stop_conditions() {
        // Committed counts are capped at the population, so total ≥ 1000 can
        // never hold; once the protocol converges every interaction is inert
        // and the run must end as absorbed rather than spinning forever.
        let scenario = Scenario::new(LvModel::default(), (60, 40))
            .with_stop(StopCondition::total_at_least(1_000));
        for backend in [
            &ApproxMajorityBackend as &dyn Backend,
            &ApproxMajorityAgentsBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(7));
            assert_eq!(report.reason, StopReason::Absorbed, "{}", backend.name());
            assert!(report.final_state.is_consensus(), "{}", backend.name());
            assert_eq!(report.final_state.total(), 100, "everyone committed");
        }
    }

    #[test]
    fn sub_scheduler_populations_absorb_instead_of_panicking() {
        // Fewer than two agents and a stop condition that is not already
        // met: the scheduler can never fire an interaction, so the run is
        // absorbed (not a panic, unlike the steppers' constructors).
        let scenario =
            Scenario::new(LvModel::default(), (1, 0)).with_stop(StopCondition::total_at_least(10));
        for backend in all_protocol_backends() {
            let report = backend.run(&scenario, &mut rng(6));
            assert_eq!(report.reason, StopReason::Absorbed, "{}", backend.name());
            assert_eq!(report.events, 0, "{}", backend.name());
            assert_eq!(report.final_state.counts(), &[1, 0], "{}", backend.name());
        }
    }

    #[test]
    fn capability_flags_mark_the_baselines() {
        for backend in all_protocol_backends() {
            assert!(backend.supports_species(2), "{}", backend.name());
            assert!(!backend.models_kinetics(), "{}", backend.name());
            assert!(!backend.deterministic(), "{}", backend.name());
        }
        // Two-opinion protocols are two-species only; the k-opinion
        // dynamics run any k.
        assert!(!ApproxMajorityBackend.supports_species(3));
        assert!(!CzyzowiczLvBackend.supports_species(3));
        assert!(!CzyzowiczLvBridgedBackend.supports_species(3));
        assert!(CzyzowiczKBackend.supports_species(3));
        assert!(CzyzowiczKBackend.supports_species(6));
        assert!(CzyzowiczKBridgedBackend.supports_species(3));
        assert!(CzyzowiczKBridgedBackend.supports_species(6));
        // Batched vs agent-list execution is reported.
        assert!(ApproxMajorityBackend.batched());
        assert!(ExactMajorityBackend.batched());
        assert!(CzyzowiczLvBackend.batched());
        assert!(AnnihilationLvBackend.batched());
        assert!(CzyzowiczKBackend.batched());
        assert!(CzyzowiczLvBridgedBackend.batched());
        assert!(CzyzowiczKBridgedBackend.batched());
        assert!(!ApproxMajorityAgentsBackend.batched());
        assert!(!ExactMajorityAgentsBackend.batched());
        assert!(!CzyzowiczLvAgentsBackend.batched());
    }

    #[test]
    #[should_panic(expected = "cannot run 3-species")]
    fn k_species_scenarios_are_rejected_by_two_opinion_backends() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![10, 10, 10]);
        let _ = ApproxMajorityBackend.run(&scenario, &mut rng(5));
    }

    #[test]
    fn exact_majority_decides_the_true_majority_even_for_tiny_gaps() {
        // The defining property: the strong-token difference is invariant,
        // so any non-zero gap decides correctly — no threshold exists.
        let scenario = Scenario::majority(LvModel::default(), 26, 25);
        for seed in 0..10 {
            let report = ExactMajorityBackend.run(&scenario, &mut rng(seed));
            assert_eq!(report.backend, "exact-majority");
            assert!(report.consensus_reached(), "seed {seed} truncated");
            assert!(report.majority_won(), "seed {seed} decided the minority");
        }
    }

    #[test]
    fn annihilation_decides_any_gap_and_preserves_it() {
        let scenario = Scenario::majority(LvModel::default(), 51, 50);
        for seed in 0..10 {
            let report = AnnihilationLvBackend.run(&scenario, &mut rng(seed));
            assert!(report.consensus_reached(), "seed {seed} truncated");
            assert!(report.majority_won(), "seed {seed} decided the minority");
            // The gap is invariant: exactly ∆ majority agents survive.
            assert_eq!(report.final_state.counts(), &[1, 0], "seed {seed}");
        }
    }

    #[test]
    fn tied_annihilation_runs_end_in_mutual_extinction() {
        let scenario = Scenario::majority(LvModel::default(), 40, 40);
        let report = AnnihilationLvBackend.run(&scenario, &mut rng(8));
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.counts(),
            &[0, 0],
            "complete annihilation"
        );
        assert_eq!(report.final_state.winner(), None);
    }

    #[test]
    fn conversions_are_classified_whichever_agent_the_scheduler_flips() {
        // Responder-side conversion: (StrongA, WeakB) → (StrongA, WeakA).
        let responder_side = classify(Some(0), Some(0), Some(1), Some(0));
        // Initiator-side conversion: (WeakB, StrongA) → (WeakA, StrongA) —
        // the regression case: the weak agent is the scheduled initiator,
        // so *its* output flips while the responder is unchanged.
        let initiator_side = classify(Some(1), Some(0), Some(0), Some(0));
        let expected = Some(PopulationEvent::Interspecific {
            attacker: 0,
            victim: 1,
        });
        assert_eq!(responder_side, expected);
        assert_eq!(initiator_side, expected, "initiator-side conversion lost");
        // Cancellation leaves both outputs unchanged: unclassified.
        assert_eq!(classify(Some(0), Some(0), Some(1), Some(1)), None);
        // Approx-majority shapes are untouched: cancel and recruit.
        assert_eq!(
            classify(Some(0), Some(0), Some(1), None),
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 1
            })
        );
        assert_eq!(
            classify(Some(1), Some(1), None, Some(1)),
            Some(PopulationEvent::Birth(1))
        );
    }

    #[test]
    fn exact_majority_agents_counts_conversions_from_both_scheduling_orders() {
        // Statistical regression for the initiator-side classification: to
        // reach consensus from (a, b), every one of the b minority agents
        // (and the majority agents weakened by cancellation) must be
        // converted individually, and roughly half of those conversions
        // schedule the weak agent as initiator. Consensus from (40, 20)
        // needs at least 20 + 2·(cancellations) conversions; with only
        // responder-side events classified the count halves, so requiring
        // the full minimum catches the regression deterministically.
        let scenario = Scenario::majority(LvModel::default(), 40, 20);
        for seed in 0..5 {
            let report = ExactMajorityAgentsBackend.run(&scenario, &mut rng(seed));
            assert!(report.consensus_reached(), "seed {seed}");
            let outcome = report.to_majority_outcome();
            assert!(
                outcome.competitive_events >= 20,
                "seed {seed}: only {} conversions classified — initiator-side \
                 conversions are being dropped",
                outcome.competitive_events
            );
        }
    }

    #[test]
    fn exact_majority_agents_classifies_conversions_as_competitive() {
        let scenario = Scenario::majority(LvModel::default(), 40, 20);
        let report = ExactMajorityAgentsBackend.run(&scenario, &mut rng(9));
        let outcome = report.to_majority_outcome();
        // Cancellations leave both outputs unchanged (strong → weak of the
        // same opinion), so the competitive events are the conversions.
        assert!(
            outcome.competitive_events > 0,
            "strong-recruits-weak conversions are competitive"
        );
        // The 4-state protocol never creates agents from blanks.
        assert_eq!(outcome.individual_events, 0);
    }

    #[test]
    fn tied_exact_majority_runs_absorb_when_the_tokens_run_out() {
        // From a tie the strong difference is 0: cancellations can exhaust
        // every token and freeze a mixed weak configuration. Without the
        // absorption check (strong-token monitor on the agent-list path,
        // pair-inertness count check on the counted path) this would spin
        // forever on the unsatisfiable stop condition below.
        let scenario = Scenario::new(LvModel::default(), (20, 20))
            .with_stop(StopCondition::total_at_least(1_000));
        for backend in [
            &ExactMajorityBackend as &dyn Backend,
            &ExactMajorityAgentsBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(10));
            assert_eq!(report.reason, StopReason::Absorbed, "{}", backend.name());
            assert_eq!(report.final_state.total(), 40, "agents never disappear");
        }
    }

    #[test]
    fn czyzowicz_conversions_preserve_the_population() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let report = CzyzowiczLvBackend.run(&scenario, &mut rng(11));
        assert_eq!(report.backend, "czyzowicz-lv");
        assert!(report.consensus_reached());
        assert_eq!(report.final_state.total(), 50, "conversions preserve n");
        let outcome = report.to_majority_outcome();
        assert!(outcome.competitive_events > 0, "conversions are attacks");
        assert_eq!(
            outcome.individual_events, 0,
            "no births in a static population"
        );
    }

    #[test]
    fn czyzowicz_minority_can_win() {
        // The proportional law: from (30, 20) the minority wins 40% of runs,
        // so some seed in a small window must decide B.
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        let minority_wins = (0..20)
            .filter(|&seed| {
                let report = CzyzowiczLvBackend.run(&scenario, &mut rng(100 + seed));
                report.consensus_reached() && report.final_state.winner() == Some(1)
            })
            .count();
        assert!(minority_wins > 0, "no minority win in 20 seeded runs");
    }

    #[test]
    fn k_opinion_backend_runs_plurality_scenarios() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![120, 40, 40]);
        let report = CzyzowiczKBackend.run(&scenario, &mut rng(12));
        assert_eq!(report.backend, "czyzowicz-lv-k");
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.total(),
            200,
            "conversions preserve the population"
        );
        assert!(report.final_state.is_consensus());
    }

    #[test]
    fn k_opinion_backend_follows_the_k_species_proportional_law() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        // Species 0 holds half the population: it should win half the runs.
        let scenario = Scenario::plurality(model, vec![60, 30, 30])
            .with_stop(StopCondition::consensus().with_max_events(10_000_000));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = CzyzowiczKBackend.run(&scenario, &mut rng(300 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.5).abs() < 0.09,
            "leader won {fraction}, k-species proportional law says 0.5"
        );
    }

    #[test]
    fn batched_runs_match_agent_list_runs_statistically() {
        // The engine-level distributional cross-validation: batched and
        // agent-list backends must estimate the same win probability. The
        // population is above BATCH_MIN_POPULATION so epochs really batch.
        let scenario = Scenario::new(LvModel::default(), (90, 70))
            .with_stop(StopCondition::any_species_extinct().with_max_events(10_000_000));
        let trials = 400u64;
        let measure = |backend: &dyn Backend, offset: u64| {
            (0..trials)
                .filter(|&seed| {
                    let report = backend.run(&scenario, &mut rng(offset + seed));
                    report.final_state.winner() == Some(0)
                })
                .count() as f64
                / trials as f64
        };
        for (batched, agents) in [
            (
                &ApproxMajorityBackend as &dyn Backend,
                &ApproxMajorityAgentsBackend as &dyn Backend,
            ),
            (&CzyzowiczLvBackend, &CzyzowiczLvAgentsBackend),
            (&CzyzowiczLvBridgedBackend, &CzyzowiczLvAgentsBackend),
        ] {
            let p_batched = measure(batched, 1_000);
            let p_agents = measure(agents, 2_000);
            assert!(
                (p_batched - p_agents).abs() < 0.1,
                "{}: batched {p_batched} vs agent-list {p_agents}",
                batched.name()
            );
        }
    }

    #[test]
    fn bridged_backend_preserves_the_population_and_decides() {
        // Large enough that block bridging (not just band stepping) carries
        // most of the run.
        let scenario = Scenario::new(LvModel::default(), (60_000, 40_000))
            .with_stop(StopCondition::any_species_extinct().with_max_events(u64::MAX / 2));
        let report = CzyzowiczLvBridgedBackend.run(&scenario, &mut rng(13));
        assert_eq!(report.backend, "czyzowicz-lv-bridged");
        assert!(report.consensus_reached());
        assert_eq!(
            report.final_state.total(),
            100_000,
            "conversions preserve n"
        );
        // A conversion trial near this gap needs Ω(n) interactions but the
        // bridged walk resolves them in very few recorded steps.
        assert!(report.events >= 100_000, "{} interactions", report.events);
        assert!(
            report.steps < 100_000,
            "bridging did not aggregate: {} steps for {} events",
            report.steps,
            report.events
        );
    }

    #[test]
    fn bridged_event_budget_is_exact_even_on_the_block_path() {
        // The budget is far above MIN_BLOCK so bridge blocks really fire,
        // yet truncation must land on the exact event count: oversized
        // blocks are refused (falling back to exact band stepping), never
        // clipped or overshot.
        let scenario = Scenario::new(LvModel::default(), (500_000, 480_000))
            .with_stop(StopCondition::any_species_extinct().with_max_events(123_456));
        for backend in [
            &CzyzowiczLvBridgedBackend as &dyn Backend,
            &CzyzowiczKBridgedBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(14));
            assert_eq!(
                report.reason,
                StopReason::MaxEventsReached,
                "{}",
                backend.name()
            );
            assert_eq!(report.events, 123_456, "{}", backend.name());
        }
    }

    #[test]
    fn bridged_backend_follows_the_proportional_law() {
        // P(A wins) = a/n exactly for the conversion dynamics; at n = 1000
        // the bridged walk mixes block and band regimes. 300 trials at
        // p = 0.6 give a ~±0.055 (2σ) band.
        let scenario = Scenario::new(LvModel::default(), (600, 400))
            .with_stop(StopCondition::any_species_extinct().with_max_events(u64::MAX / 2));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = CzyzowiczLvBridgedBackend.run(&scenario, &mut rng(500 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.6).abs() < 0.09,
            "majority won {fraction}, proportional law says 0.6"
        );
    }

    #[test]
    fn k_bridged_backend_follows_the_k_species_proportional_law() {
        use lv_lotka::{CompetitionKind, MultiLvModel};
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![300, 150, 150])
            .with_stop(StopCondition::consensus().with_max_events(u64::MAX / 2));
        let trials = 300u64;
        let wins = (0..trials)
            .filter(|&seed| {
                let report = CzyzowiczKBridgedBackend.run(&scenario, &mut rng(700 + seed));
                assert!(report.consensus_reached(), "seed {seed} truncated");
                report.final_state.winner() == Some(0)
            })
            .count();
        let fraction = wins as f64 / trials as f64;
        assert!(
            (fraction - 0.5).abs() < 0.09,
            "leader won {fraction}, k-species proportional law says 0.5"
        );
    }
}
