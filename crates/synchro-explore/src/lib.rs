//! Automatic mapping and design-space exploration for Synchroscalar
//! (re-exported as `synchroscalar::explorer`).
//!
//! The paper's central claim is that statically scheduled SDF
//! applications let Synchroscalar *derive* per-column frequencies and
//! voltages that minimise power at a fixed rate.  This crate closes that
//! loop: given an [`SdfGraph`], a target iteration rate, a tile budget
//! and a [`Technology`], [`explore`] searches tile allocations and
//! actor→column groupings, computes each column's frequency from the
//! repetition vector, its voltage from the Figure 5 VF curve and its
//! power from the `synchro-power` models, and returns
//!
//! * the minimum-power feasible mapping,
//! * the full power-vs-tiles curve (one entry per reachable tile count),
//! * the Pareto frontier of that curve (the Figure 8-style trade-off).
//!
//! Small graphs are solved by exhaustive enumeration of contiguous
//! groupings (each grouping solved exactly by a per-tile-count dynamic
//! program); large graphs fall back to a dominance-pruned beam search
//! over grouping prefixes.  Both engines fan out across a `std::thread`
//! worker pool and run an allocation-free hot path: interval costs live
//! in one flat arena, DP states carry backpointers instead of cloned
//! allocation vectors, and the exhaustive engine work-steals grouping
//! chunks off an atomic cursor so skewed groupings cannot idle workers
//! (see the README's "Performance" section).
//!
//! A solution [`realize`](ExplorerSolution::realize)s back into a plain
//! `(SdfGraph, Mapping)` pair — the original graph for single-actor
//! columns, or a [`cluster`]ed graph when the search fused adjacent
//! actors into one column — so winners compile through
//! `synchroscalar::mapper::compile` unchanged.
//!
//! ```
//! use synchro_explore::{explore, ExplorerConfig};
//! use synchro_sdf::SdfGraph;
//!
//! // A two-stage filter at 1 M iterations/s under a 12-tile budget.
//! let mut graph = SdfGraph::new();
//! let head = graph.add_actor("head", 200, 8);
//! let tail = graph.add_actor("tail", 120, 8);
//! graph.add_edge(head, tail, 1, 1, 0).unwrap();
//! let exploration = explore(&graph, &ExplorerConfig::new(1e6, 12)).unwrap();
//! assert!(exploration.best.feasible);
//! assert!(exploration.best.total_tiles <= 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use synchro_power::{AreaModel, Technology};
use synchro_sdf::{gcd, ActorId, Mapping, MappingViolation, SdfError, SdfGraph};
use synchro_trace::{RouteRejectEvent, Trace, TraceEvent};

mod degraded;
mod model;
mod pareto;
mod search;
mod space;

pub use degraded::{
    explore_degraded, explore_degraded_board, DegradationCurve, DegradationPoint, ResourceLoss,
    RATE_LADDER,
};
pub use model::ColumnEval;
pub use pareto::dominates;
pub use search::SearchStats;
pub use space::{cluster, TileCandidates};

use model::{Evaluator, GraphContext};

/// Errors raised by the explorer.
#[derive(Debug)]
pub enum ExplorerError {
    /// Graph analysis failed (inconsistent rates, deadlock, empty graph).
    Sdf(SdfError),
    /// The tile budget cannot host even one tile per column group.
    BudgetTooSmall {
        /// Minimum number of column groups any grouping produces.
        min_groups: usize,
        /// The configured budget.
        budget: u32,
    },
    /// The graph is too large for the exhaustive engine; use
    /// [`SearchStrategy::Beam`] (or [`SearchStrategy::Auto`]).
    TooManyActorsForExhaustive {
        /// Actors in the graph.
        actors: usize,
    },
    /// The search space contained no candidate at all.
    NoSolutions,
    /// A hand-built mapping failed [`Mapping::validate`].
    InvalidMapping {
        /// The reported violations.
        violations: Vec<MappingViolation>,
    },
    /// A hand-built mapping does not place every actor exactly once.
    IncompleteMapping {
        /// An actor without a placement (or placed more than once).
        actor: ActorId,
    },
    /// Every candidate grouping was rejected by the communication
    /// feasibility prune: no mapping's cross-column traffic fits the
    /// configured TDM frame.
    CommInfeasible {
        /// The configured frame capacity in slots per iteration.
        capacity: u64,
        /// Groupings the prune rejected.
        pruned: u64,
    },
    /// No contiguous partition of the graph across the permitted chip
    /// count produced a feasible per-chip exploration (see
    /// [`explore_board`]).
    BoardInfeasible {
        /// Most chips the partitioner was allowed to use.
        max_chips: usize,
        /// Candidate splits whose per-chip explorations were attempted.
        splits_tried: usize,
    },
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::Sdf(e) => write!(f, "graph analysis: {e}"),
            ExplorerError::BudgetTooSmall { min_groups, budget } => write!(
                f,
                "tile budget {budget} cannot host {min_groups} column groups"
            ),
            ExplorerError::TooManyActorsForExhaustive { actors } => write!(
                f,
                "{actors} actors is too many for exhaustive grouping enumeration"
            ),
            ExplorerError::NoSolutions => write!(f, "search space contained no candidates"),
            ExplorerError::InvalidMapping { violations } => {
                write!(f, "mapping has {} violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            ExplorerError::IncompleteMapping { actor } => {
                write!(f, "actor {} is not placed exactly once", actor.0)
            }
            ExplorerError::CommInfeasible { capacity, pruned } => write!(
                f,
                "no grouping's cross-column traffic fits the {capacity}-slot TDM frame \
                 ({pruned} groupings rejected)"
            ),
            ExplorerError::BoardInfeasible {
                max_chips,
                splits_tried,
            } => write!(
                f,
                "no contiguous partition across up to {max_chips} chip(s) was feasible \
                 ({splits_tried} splits tried)"
            ),
        }
    }
}

impl ExplorerError {
    /// Is this a resource-exhaustion failure — the search was well-posed
    /// but the hardware budget (tiles, TDM slots, bridge capacity, chip
    /// count) could not host any solution?  Exhaustion errors are the
    /// retryable class degraded-mode remapping walks the rate ladder on;
    /// the rest are malformed inputs that no amount of extra hardware or
    /// rate slack fixes.
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            ExplorerError::BudgetTooSmall { .. }
                | ExplorerError::NoSolutions
                | ExplorerError::CommInfeasible { .. }
                | ExplorerError::BoardInfeasible { .. }
        )
    }

    /// A stable machine-readable code naming the rejection class, the
    /// explorer-side counterpart of `RouteError::code` — used by the
    /// trace `RejectionLedger` to aggregate why candidate mappings died.
    pub fn code(&self) -> &'static str {
        match self {
            ExplorerError::Sdf(_) => "sdf",
            ExplorerError::BudgetTooSmall { .. } => "budget_too_small",
            ExplorerError::TooManyActorsForExhaustive { .. } => "too_many_actors",
            ExplorerError::NoSolutions => "no_solutions",
            ExplorerError::InvalidMapping { .. } => "invalid_mapping",
            ExplorerError::IncompleteMapping { .. } => "incomplete_mapping",
            ExplorerError::CommInfeasible { .. } => "comm_infeasible",
            ExplorerError::BoardInfeasible { .. } => "board_infeasible",
        }
    }
}

impl Error for ExplorerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExplorerError::Sdf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SdfError> for ExplorerError {
    fn from(value: SdfError) -> Self {
        ExplorerError::Sdf(value)
    }
}

/// Which search engine [`explore`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Exhaustive for small graphs, beam search for large ones.
    #[default]
    Auto,
    /// Enumerate every contiguous grouping and solve each exactly.
    Exhaustive,
    /// Dominance-pruned beam search over grouping prefixes, keeping at
    /// most `width` partial solutions per prefix length.  Exact for the
    /// best solution and the frontier when `width ≥ budget + 1`.
    Beam {
        /// Maximum partial solutions retained per prefix length.
        width: usize,
    },
}

/// Which supply-voltage policy the explorer's cost model reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VoltagePolicy {
    /// Each column gets the minimum quantised voltage its own frequency
    /// requires — the paper's headline per-column voltage scaling.
    #[default]
    PerColumn,
    /// Every column shares one chip-wide supply: the maximum voltage any
    /// column requires.  The search still ranks candidates by the
    /// per-column relaxation (the mapping that minimises per-column power
    /// is the one Table 4 re-costs under a single supply); the reported
    /// costs, voltages and best/frontier selection are then computed at
    /// the shared voltage.
    SingleVoltage,
}

/// The communication capacity the explorer prunes against: one TDM frame
/// of the horizontal bus per graph iteration, described by its width in
/// words per cycle and its period in bus cycles.
///
/// The prune is an optimistic upper bound — a grouping is rejected only
/// when its total cross-column words per iteration exceed the whole
/// frame (`splits × period × segment_groups` slots), which no schedule
/// could ever fit.  Survivors still go through the exact
/// `synchro-route` compiler, which also enforces reachability under the
/// concrete segment topology.
///
/// The exhaustive engine applies the prune per grouping before its DP,
/// so its results are exact under the constraint.  The beam engine
/// tracks the cross-column words each prefix has already committed and
/// makes its dominance check Pareto over `(power, cross words)`, so a
/// schedulable-but-pricier prefix is never shadowed by a cheaper
/// unschedulable one; prefixes whose committed traffic already
/// overflows the frame are dropped as they form.  Both engines are
/// exact under the constraint (property-tested against each other),
/// though the beam's width cap needs head-room beyond `budget + 1` when
/// `comm` is set, since a layer may keep several partials per tile
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommSpec {
    /// Bus width in words per cycle (independent splits).
    pub splits: u32,
    /// Bus cycles per graph iteration.
    pub period: u64,
    /// Electrically separate column groups each split's segment switches
    /// create (1 = broadcast).  Capacity multiplier for the optimistic
    /// bound: disjoint groups can reuse a split in the same cycle.
    pub segment_groups: u32,
}

impl CommSpec {
    /// A broadcast frame of `splits` words per cycle over `period` cycles.
    pub fn new(splits: u32, period: u64) -> Self {
        CommSpec {
            splits: splits.max(1),
            period,
            segment_groups: 1,
        }
    }

    /// Derive the period from a bus clock and the iteration rate (whole
    /// bus cycles per graph iteration).
    pub fn from_clock(splits: u32, bus_frequency_hz: f64, iteration_rate_hz: f64) -> Self {
        let period = if bus_frequency_hz > 0.0 && iteration_rate_hz > 0.0 {
            (bus_frequency_hz / iteration_rate_hz).floor() as u64
        } else {
            0
        };
        CommSpec::new(splits, period)
    }

    /// Override the segment-group count (the "segment count" search
    /// dimension).
    #[must_use]
    pub fn with_segment_groups(mut self, segment_groups: u32) -> Self {
        self.segment_groups = segment_groups.max(1);
        self
    }

    /// Slots per iteration the frame offers at most.
    pub fn capacity(&self) -> u64 {
        u64::from(self.splits)
            .saturating_mul(self.period)
            .saturating_mul(u64::from(self.segment_groups))
    }
}

/// The board-partitioning stage searched when [`ExplorerConfig::board`]
/// is set: [`explore_board`] shards the graph across up to `max_chips`
/// chips by a min-cut-flavoured contiguous split, running one per-chip
/// exploration (with the per-chip comm prune) for each candidate split
/// until every chip is feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardSearch {
    /// Most chips a partition may use (1 tries the single-chip path
    /// first; the partitioner always prefers fewer chips).
    pub max_chips: usize,
    /// Candidate splits attempted per chip count, in ranked order
    /// (fewest cut words first, then best work balance).
    pub splits_per_chip_count: usize,
    /// Optional cap on inter-chip words per iteration: splits whose cut
    /// exceeds it are pruned before any per-chip search runs, mirroring
    /// the intra-chip comm prune at the bridge level.
    pub bridge_capacity: Option<u64>,
}

impl Default for BoardSearch {
    fn default() -> Self {
        BoardSearch {
            max_chips: 4,
            splits_per_chip_count: 8,
            bridge_capacity: None,
        }
    }
}

impl BoardSearch {
    /// A board of up to `max_chips` chips with default split ranking.
    pub fn new(max_chips: usize) -> Self {
        BoardSearch {
            max_chips: max_chips.max(1),
            ..Default::default()
        }
    }

    /// Cap the inter-chip words per iteration the partitioner accepts.
    #[must_use]
    pub fn with_bridge_capacity(mut self, words: u64) -> Self {
        self.bridge_capacity = Some(words);
        self
    }

    /// Override how many ranked splits are attempted per chip count.
    #[must_use]
    pub fn with_splits_per_chip_count(mut self, splits: usize) -> Self {
        self.splits_per_chip_count = splits.max(1);
        self
    }
}

/// Above this actor count [`SearchStrategy::Auto`] switches from
/// exhaustive grouping enumeration (2^(n−1) groupings) to beam search,
/// and [`SearchStrategy::Exhaustive`] is rejected outright (public so
/// harnesses picking a strategy per workload stay in sync).
pub const EXHAUSTIVE_ACTOR_LIMIT: usize = 16;

/// Configuration of one exploration.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Target graph-iteration rate (iterations per second).
    pub iteration_rate_hz: f64,
    /// Maximum total tiles any solution may use.
    pub tile_budget: u32,
    /// Technology the cost model evaluates under.
    pub tech: Technology,
    /// Candidate tile counts per column group.
    pub candidates: TileCandidates,
    /// Search engine selection.
    pub strategy: SearchStrategy,
    /// Worker threads of the exhaustive engine (0 = one per available
    /// core).  At 1 it runs on the caller's thread and spawns nothing.
    /// The beam engine always runs on the caller's thread and reports
    /// `threads_used: 1`.
    pub threads: usize,
    /// Largest number of adjacent actors the search may fuse into one
    /// column group.  `1` restricts the space to the paper's structure of
    /// one algorithm block per column group (what Table 4 publishes);
    /// larger values let the explorer trade fusion against parallelism.
    /// Fusion requires actor insertion order to be topological (every
    /// edge running from a lower to a higher actor id); graphs with
    /// backward edges are searched with single-actor columns only.
    pub max_group_size: usize,
    /// Parallel efficiency assumed when splitting work across tiles
    /// (1.0 = perfect speedup, matching the reference mappings).
    pub efficiency: f64,
    /// Optional communication-feasibility prune: groupings whose
    /// cross-column traffic cannot fit the TDM frame are rejected before
    /// their tile allocations are searched.  `None` (the default) keeps
    /// the unconstrained behaviour.
    pub comm: Option<CommSpec>,
    /// Supply-voltage policy the reported costs are computed under.
    pub voltage_policy: VoltagePolicy,
    /// Optional board-partitioning stage: when set, [`explore_board`]
    /// shards the graph across up to `max_chips` chips (each chip budgeted
    /// and comm-pruned independently with this configuration).  [`explore`]
    /// itself ignores the field — single-chip exploration is the board
    /// path's size-1 special case.
    pub board: Option<BoardSearch>,
    /// Trace handle the search reports into: phase spans
    /// (`explore.plan` / `explore.arena` / `explore.search`) and
    /// engine-qualified registry counters mirroring [`SearchStats`].
    /// Disabled by default — the search pays nothing for it.
    pub trace: Trace,
}

impl ExplorerConfig {
    /// A default configuration: ISCA 2004 technology, power-of-two tile
    /// candidates, automatic engine choice, all cores, grouping enabled.
    pub fn new(iteration_rate_hz: f64, tile_budget: u32) -> Self {
        ExplorerConfig {
            iteration_rate_hz,
            tile_budget,
            tech: Technology::isca2004(),
            candidates: TileCandidates::PowersOfTwo,
            strategy: SearchStrategy::Auto,
            threads: 0,
            max_group_size: usize::MAX,
            efficiency: 1.0,
            comm: None,
            voltage_policy: VoltagePolicy::PerColumn,
            board: None,
            trace: Trace::off(),
        }
    }

    /// Restrict the search to one actor per column group — the structure
    /// of every hand-built Table 4 mapping.
    #[must_use]
    pub fn single_actor_columns(mut self) -> Self {
        self.max_group_size = 1;
        self
    }

    /// Override the search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the exhaustive engine's worker-thread count (0 = one per
    /// available core, 1 = search on the caller's thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the candidate tile counts.
    #[must_use]
    pub fn with_candidates(mut self, candidates: TileCandidates) -> Self {
        self.candidates = candidates;
        self
    }

    /// Override the technology.
    #[must_use]
    pub fn with_tech(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Enable the communication-feasibility prune against one TDM frame.
    #[must_use]
    pub fn with_comm(mut self, comm: CommSpec) -> Self {
        self.comm = Some(comm);
        self
    }

    /// Override the voltage policy the costs are reported under.
    #[must_use]
    pub fn with_voltage_policy(mut self, policy: VoltagePolicy) -> Self {
        self.voltage_policy = policy;
        self
    }

    /// Enable the board-partitioning stage (see [`explore_board`]).
    #[must_use]
    pub fn with_board(mut self, board: BoardSearch) -> Self {
        self.board = Some(board);
        self
    }

    /// Install a trace handle: search spans, prune counters and — on
    /// failure — a structured `RouteReject` naming the
    /// [`ExplorerError::code`] are emitted into it (feed a
    /// `RejectionLedger` to aggregate why candidates died).
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The worker-thread count this configuration actually runs with:
    /// `threads` when non-zero, otherwise one per available core.  Public
    /// so benchmarks can resolve the count *before* measuring and report
    /// it honestly (a `threads: 0` row in a perf record is meaningless).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One column group of a solution: the actors it hosts and its evaluated
/// operating point.
#[derive(Debug, Clone)]
pub struct ColumnSolution {
    /// The actors fused into this column group (one entry for
    /// single-actor columns).
    pub actors: Vec<ActorId>,
    /// Human-readable name (member names joined with `+`).
    pub name: String,
    /// Tiles assigned.
    pub tiles: u32,
    /// Required per-tile frequency (MHz).
    pub frequency_mhz: f64,
    /// Assigned supply voltage (V).
    pub voltage: f64,
    /// Whether the operating point fits the supply envelope.
    pub within_envelope: bool,
    /// Power breakdown.
    pub power: synchro_power::ColumnPower,
}

/// One point of the design space: a complete mapping with its cost.
#[derive(Debug, Clone)]
pub struct ExplorerSolution {
    /// Column groups in pipeline order.
    pub columns: Vec<ColumnSolution>,
    /// Total tiles used.
    pub total_tiles: u32,
    /// Total power (mW) under the explorer's cost model.
    pub power_mw: f64,
    /// Whether every column fits the supply envelope.
    pub feasible: bool,
    efficiency: f64,
}

impl ExplorerSolution {
    /// Is every column group a single actor (directly expressible as a
    /// `Mapping` over the original graph)?
    pub fn is_single_actor_columns(&self) -> bool {
        self.columns.iter().all(|c| c.actors.len() == 1)
    }

    /// Per-column frequencies in pipeline order.
    pub fn frequencies_mhz(&self) -> Vec<f64> {
        self.columns.iter().map(|c| c.frequency_mhz).collect()
    }

    /// Per-column tile counts in pipeline order.
    pub fn allocation(&self) -> Vec<u32> {
        self.columns.iter().map(|c| c.tiles).collect()
    }

    /// Chip area of the solution (tiles rounded up to whole columns).
    pub fn area_mm2(&self) -> f64 {
        AreaModel::isca2004().chip_area_mm2(self.total_tiles)
    }

    /// Turn the solution back into a `(graph, mapping)` pair ready for
    /// `synchroscalar::mapper::compile`: the original graph with a
    /// multi-actor mapping when every column hosts one actor, or the
    /// [`cluster`]ed graph with a one-actor-per-column mapping when the
    /// search fused adjacent actors.
    ///
    /// # Errors
    ///
    /// Propagates rate-consistency errors from clustering.
    pub fn realize(&self, graph: &SdfGraph) -> Result<(SdfGraph, Mapping), ExplorerError> {
        let groups: Vec<(usize, usize)> = self
            .columns
            .iter()
            .map(|c| {
                let start = c.actors.first().expect("column has actors").0;
                (start, start + c.actors.len())
            })
            .collect();
        let allocation = self.allocation();
        if self.is_single_actor_columns() {
            let mapping = space::mapping_for(&groups, &allocation, self.efficiency, true);
            Ok((graph.clone(), mapping))
        } else {
            let clustered = space::cluster(graph, &groups)?;
            let mapping = space::mapping_for(&groups, &allocation, self.efficiency, false);
            Ok((clustered, mapping))
        }
    }
}

/// The result of one [`explore`] run.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The minimum-power feasible solution (or the minimum-power solution
    /// overall when nothing fits the envelope — check
    /// [`ExplorerSolution::feasible`]).
    pub best: ExplorerSolution,
    /// The cheapest solution at every reachable exact tile count, sorted
    /// by tiles ascending.  Complete for the exhaustive engine; the beam
    /// engine only retains non-dominated counts.
    pub curve: Vec<ExplorerSolution>,
    /// The non-dominated (tiles, power) subset of `curve` — the Figure
    /// 8-style Pareto frontier.
    pub frontier: Vec<ExplorerSolution>,
    /// Search counters.
    pub stats: SearchStats,
}

impl Exploration {
    /// The curve entry using exactly `tiles` tiles, if that count was
    /// reachable.
    pub fn solution_for_tiles(&self, tiles: u32) -> Option<&ExplorerSolution> {
        self.curve.iter().find(|s| s.total_tiles == tiles)
    }
}

/// Search tile allocations and actor→column groupings of `graph` for the
/// minimum-power mapping sustaining `config.iteration_rate_hz` within
/// `config.tile_budget` tiles.
///
/// # Errors
///
/// Returns [`ExplorerError`] for unanalyzable graphs, impossible budgets,
/// or an exhausted search space.
pub fn explore(graph: &SdfGraph, config: &ExplorerConfig) -> Result<Exploration, ExplorerError> {
    let result = explore_impl(graph, config);
    reject_on_err(&config.trace, &result);
    result
}

/// Emit a structured rejection event for a failed exploration, mirroring
/// the router's convention so one `RejectionLedger` aggregates both.
fn reject_on_err<T>(trace: &Trace, result: &Result<T, ExplorerError>) {
    if let Err(err) = result {
        trace.emit(|| {
            TraceEvent::from(RouteRejectEvent {
                code: err.code(),
                detail: err.to_string(),
            })
        });
    }
}

fn explore_impl(graph: &SdfGraph, config: &ExplorerConfig) -> Result<Exploration, ExplorerError> {
    let trace = &config.trace;
    let (ctx, plan, evaluator) = {
        let _span = trace.span("explore.plan");
        let ctx = GraphContext::new(graph)?;
        let plan = plan_search(graph, &ctx, config)?;
        let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency);
        (ctx, plan, evaluator)
    };
    let arena = {
        let _span = trace.span("explore.arena");
        search::IntervalArena::build(
            &ctx,
            &evaluator,
            config.candidates,
            config.tile_budget,
            plan.max_group_size,
        )
    };
    let result = {
        let _span = trace.span("explore.search");
        run_search(graph, config, &ctx, &evaluator, &arena, &plan, config.comm)
    };
    if let Ok(exploration) = &result {
        // Unify the ad-hoc SearchStats counters into the metrics registry,
        // qualified by the engine that produced them.
        let s = &exploration.stats;
        let keys = if plan.use_beam.is_some() {
            [
                ("explore.beam.mappings_evaluated", s.mappings_evaluated),
                ("explore.beam.groupings_examined", s.groupings_examined),
                ("explore.beam.states_pruned", s.states_pruned),
                (
                    "explore.beam.groupings_comm_pruned",
                    s.groupings_comm_pruned,
                ),
            ]
        } else {
            [
                (
                    "explore.exhaustive.mappings_evaluated",
                    s.mappings_evaluated,
                ),
                (
                    "explore.exhaustive.groupings_examined",
                    s.groupings_examined,
                ),
                ("explore.exhaustive.states_pruned", s.states_pruned),
                (
                    "explore.exhaustive.groupings_comm_pruned",
                    s.groupings_comm_pruned,
                ),
            ]
        };
        for (name, delta) in keys {
            trace.counter(name, delta);
        }
    }
    result
}

/// The resolved engine choice of one exploration: how large groups may
/// get, which engine runs, and across how many workers.
struct SearchPlan {
    max_group_size: usize,
    /// `Some(width)` = beam search, `None` = exhaustive enumeration.
    use_beam: Option<usize>,
    threads: usize,
}

/// Validate `config` against the analysed graph and resolve the engine
/// choice.  Split out of [`explore`] so sweeps sharing one
/// [`search::IntervalArena`] across invocations plan once per point
/// without re-running the search tail.
fn plan_search(
    graph: &SdfGraph,
    ctx: &GraphContext,
    config: &ExplorerConfig,
) -> Result<SearchPlan, ExplorerError> {
    let n = ctx.n;
    // Fusing is only sound when actor order is a topological order with
    // strictly forward edges: contiguous groups of a forward-edged chain
    // cluster to an acyclic graph, whereas a backward edge (a feedback
    // loop carried by initial tokens) could deadlock the clustered graph.
    // Self-loops stay internal to any group and are harmless.
    let forward_edges = graph.edges().iter().all(|e| e.from.0 <= e.to.0);
    let fusion_limit = if forward_edges {
        config.max_group_size
    } else {
        1
    };
    let max_group_size = fusion_limit.clamp(1, n.max(1));
    let min_groups = n.div_ceil(max_group_size);
    if (config.tile_budget as usize) < min_groups {
        return Err(ExplorerError::BudgetTooSmall {
            min_groups,
            budget: config.tile_budget,
        });
    }
    let default_width = (config.tile_budget as usize + 1).max(64);
    let use_beam = match config.strategy {
        SearchStrategy::Exhaustive if max_group_size > 1 && n > EXHAUSTIVE_ACTOR_LIMIT => {
            return Err(ExplorerError::TooManyActorsForExhaustive { actors: n });
        }
        SearchStrategy::Exhaustive => None,
        SearchStrategy::Beam { width } => Some(width),
        SearchStrategy::Auto => {
            if max_group_size == 1 || n <= EXHAUSTIVE_ACTOR_LIMIT {
                None
            } else {
                Some(default_width)
            }
        }
    };
    Ok(SearchPlan {
        max_group_size,
        use_beam,
        threads: config.resolved_threads(),
    })
}

/// Run the planned engine over a prebuilt arena and package the outcome.
/// `comm` is explicit (rather than read from `config`) so comm sweeps
/// reuse one arena — interval costs do not depend on the frame.
fn run_search(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    ctx: &GraphContext,
    evaluator: &Evaluator,
    arena: &search::IntervalArena,
    plan: &SearchPlan,
    comm: Option<CommSpec>,
) -> Result<Exploration, ExplorerError> {
    let use_beam = plan.use_beam;
    let outcome = match use_beam {
        None => search::exhaustive(
            ctx,
            arena,
            config.tile_budget,
            plan.max_group_size,
            plan.threads,
            comm,
        ),
        Some(width) => search::beam(
            ctx,
            arena,
            config.tile_budget,
            plan.max_group_size,
            width,
            comm,
        ),
    };
    if outcome.curve.is_empty() {
        // Blame communication only when the prune certainly rejected
        // *every* grouping: the exhaustive engine examines each one, so
        // pruned == examined is a proof.  The beam engine's comm counter
        // tallies pruned prefix *extensions*, which cannot distinguish
        // comm-starved from budget-starved searches, so the beam reports
        // the honest NoSolutions instead.
        if use_beam.is_none()
            && outcome.stats.groupings_comm_pruned > 0
            && outcome.stats.groupings_comm_pruned >= outcome.stats.groupings_examined
        {
            return Err(ExplorerError::CommInfeasible {
                capacity: comm.map(|c| c.capacity()).unwrap_or(0),
                pruned: outcome.stats.groupings_comm_pruned,
            });
        }
        return Err(ExplorerError::NoSolutions);
    }

    let mut curve: Vec<ExplorerSolution> = outcome
        .curve
        .iter()
        .map(|c| {
            let solution = realize_candidate(
                graph,
                ctx,
                evaluator,
                &c.groups,
                &c.allocation,
                config.voltage_policy,
            );
            // The search engines accumulate cost layer by layer in the
            // same order realization sums it, so the backpointer DP's
            // totals must agree bit-for-bit with the re-evaluation.  Under
            // the single-voltage policy the realized cost is deliberately
            // re-priced at the shared supply, so the identity only holds
            // for the per-column relaxation the search ran on.
            if config.voltage_policy == VoltagePolicy::PerColumn {
                debug_assert_eq!(
                    solution.power_mw.to_bits(),
                    c.power_mw.to_bits(),
                    "search cost diverged from realized cost"
                );
                debug_assert_eq!(solution.feasible, c.feasible);
            }
            solution
        })
        .collect();
    // One entry per tile count: feasible beats infeasible, then lower
    // power wins (the beam engine can surface both a cheap infeasible and
    // a pricier feasible solution at the same count).
    curve.sort_by(|a, b| {
        a.total_tiles
            .cmp(&b.total_tiles)
            .then(b.feasible.cmp(&a.feasible))
            .then(a.power_mw.partial_cmp(&b.power_mw).expect("finite power"))
    });
    curve.dedup_by_key(|s| s.total_tiles);

    // The Pareto frontier covers achievable (feasible) designs; only when
    // nothing fits the envelope does it fall back to the whole curve.
    let frontier_pool: Vec<&ExplorerSolution> = {
        let feasible: Vec<&ExplorerSolution> = curve.iter().filter(|s| s.feasible).collect();
        if feasible.is_empty() {
            curve.iter().collect()
        } else {
            feasible
        }
    };
    let points: Vec<(u32, f64)> = frontier_pool
        .iter()
        .map(|s| (s.total_tiles, s.power_mw))
        .collect();
    let frontier: Vec<ExplorerSolution> = pareto::frontier_indices(&points)
        .into_iter()
        .map(|i| frontier_pool[i].clone())
        .collect();
    let min_power = |solutions: &mut dyn Iterator<Item = &ExplorerSolution>| {
        solutions
            .min_by(|a, b| a.power_mw.partial_cmp(&b.power_mw).expect("finite power"))
            .cloned()
    };
    let best = min_power(&mut curve.iter().filter(|s| s.feasible))
        .or_else(|| min_power(&mut curve.iter()))
        .expect("curve is non-empty");
    Ok(Exploration {
        best,
        curve,
        frontier,
        stats: outcome.stats,
    })
}

/// Evaluate a hand-built mapping (one actor per placement, every actor
/// placed exactly once) under the explorer's cost model, so automatic and
/// reference mappings are compared on equal footing.
///
/// # Errors
///
/// Returns [`ExplorerError::InvalidMapping`] /
/// [`ExplorerError::IncompleteMapping`] for ill-formed mappings and
/// propagates graph-analysis failures.
pub fn evaluate_mapping(
    graph: &SdfGraph,
    mapping: &Mapping,
    config: &ExplorerConfig,
) -> Result<ExplorerSolution, ExplorerError> {
    let violations = mapping.validate(graph);
    if !violations.is_empty() {
        return Err(ExplorerError::InvalidMapping { violations });
    }
    let mut placed = vec![false; graph.actors().len()];
    for p in mapping.placements() {
        if placed[p.actor.0] {
            return Err(ExplorerError::IncompleteMapping { actor: p.actor });
        }
        placed[p.actor.0] = true;
    }
    if let Some(missing) = placed.iter().position(|&p| !p) {
        return Err(ExplorerError::IncompleteMapping {
            actor: ActorId(missing),
        });
    }
    let ctx = GraphContext::new(graph)?;
    let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency);
    let groups: Vec<(usize, usize)> = mapping
        .placements()
        .iter()
        .map(|p| (p.actor.0, p.actor.0 + 1))
        .collect();
    let allocation: Vec<u32> = mapping.placements().iter().map(|p| p.tiles).collect();
    Ok(realize_candidate(
        graph,
        &ctx,
        &evaluator,
        &groups,
        &allocation,
        config.voltage_policy,
    ))
}

/// One point of a bus-width sweep: the communication constraint the
/// exploration ran under and its outcome.
#[derive(Debug)]
pub struct BusWidthPoint {
    /// The frame the prune used (splits = the swept width).
    pub comm: CommSpec,
    /// The exploration at that width, or the structured infeasibility
    /// (typically [`ExplorerError::CommInfeasible`] for widths too narrow
    /// for any grouping).
    pub outcome: Result<Exploration, ExplorerError>,
}

/// Sweep the horizontal-bus width (words per cycle) as a search
/// dimension: re-explore `graph` under `config` with the
/// communication-feasibility prune set to each width in `widths`,
/// keeping `base`'s period and segment-group count.
///
/// Interval costs do not depend on the frame, so the sweep analyses the
/// graph and builds the `search::IntervalArena` once and reruns only
/// the engine per width — each point is bit-identical to an independent
/// [`explore`] call at that width.
pub fn explore_bus_widths(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    base: CommSpec,
    widths: &[u32],
) -> Vec<BusWidthPoint> {
    let comm_of = |splits: u32| CommSpec {
        splits: splits.max(1),
        ..base
    };
    let shared = (|| {
        let ctx = GraphContext::new(graph).ok()?;
        let plan = plan_search(graph, &ctx, config).ok()?;
        let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency);
        let arena = search::IntervalArena::build(
            &ctx,
            &evaluator,
            config.candidates,
            config.tile_budget,
            plan.max_group_size,
        );
        Some((ctx, plan, evaluator, arena))
    })();
    widths
        .iter()
        .map(|&splits| {
            let comm = comm_of(splits);
            let outcome = match &shared {
                Some((ctx, plan, evaluator, arena)) => {
                    run_search(graph, config, ctx, evaluator, arena, plan, Some(comm))
                }
                // Analysis or planning failed: fall back to the plain
                // path so every point reports the structured error.
                None => explore(graph, &config.clone().with_comm(comm)),
            };
            BusWidthPoint { comm, outcome }
        })
        .collect()
}

/// One point of a tile-budget sweep: the budget the exploration ran
/// under and its outcome.
#[derive(Debug)]
pub struct BudgetPoint {
    /// The tile budget of this point.
    pub budget: u32,
    /// The exploration at that budget, or its structured failure
    /// (typically [`ExplorerError::BudgetTooSmall`] for budgets below the
    /// minimum group count).
    pub outcome: Result<Exploration, ExplorerError>,
}

/// Sweep the tile budget as a search dimension: re-explore `graph` under
/// `config` at each budget in `budgets`.
///
/// The budget changes which tile counts each interval offers, so the
/// arena is rebuilt per point — but the `(work, cap, tokens, tiles)`
/// power evaluations behind it are shared through one `EvalCache`, so
/// repeated operating points across budgets are priced once.  Each point
/// is bit-identical to an independent [`explore`] call at that budget.
pub fn explore_budget_sweep(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    budgets: &[u32],
) -> Vec<BudgetPoint> {
    let at_budget = |budget: u32| ExplorerConfig {
        tile_budget: budget,
        ..config.clone()
    };
    let Ok(ctx) = GraphContext::new(graph) else {
        // Unanalysable graph: every point reports the structured error.
        return budgets
            .iter()
            .map(|&budget| BudgetPoint {
                budget,
                outcome: explore(graph, &at_budget(budget)),
            })
            .collect();
    };
    let evaluator = Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency);
    let mut cache = model::EvalCache::default();
    budgets
        .iter()
        .map(|&budget| {
            let swept = at_budget(budget);
            let outcome = plan_search(graph, &ctx, &swept).and_then(|plan| {
                let arena = search::IntervalArena::build_with_cache(
                    &ctx,
                    &evaluator,
                    swept.candidates,
                    budget,
                    plan.max_group_size,
                    &mut cache,
                );
                run_search(graph, &swept, &ctx, &evaluator, &arena, &plan, swept.comm)
            });
            BudgetPoint { budget, outcome }
        })
        .collect()
}

/// One chip of a board exploration: the contiguous actor range it hosts
/// and its winning per-chip solution.
#[derive(Debug, Clone)]
pub struct ChipExploration {
    /// First actor (inclusive) of the chip's range in the original graph.
    pub start: usize,
    /// One past the last actor of the chip's range.
    pub end: usize,
    /// The chip-local winner: single-actor columns over the chip's
    /// subgraph, actor ids local to the range (add `start` to recover
    /// the original ids).
    pub solution: ExplorerSolution,
}

/// The result of one [`explore_board`] run: a contiguous partition of
/// the graph across chips, one feasible exploration per chip, and the
/// inter-chip traffic the partition commits to the bridges.
#[derive(Debug, Clone)]
pub struct BoardExploration {
    /// Per-chip ranges and solutions, in pipeline order.
    pub chips: Vec<ChipExploration>,
    /// Words per graph iteration crossing chip boundaries (the demand
    /// the chip-to-chip bridge lanes must carry).
    pub bridge_words_per_iteration: u64,
    /// Candidate splits whose per-chip explorations were attempted
    /// before (and including) the winner.
    pub splits_tried: usize,
    /// Search counters summed over the winning split's per-chip runs.
    pub stats: SearchStats,
}

impl BoardExploration {
    /// Chips in the winning partition.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Total tiles across every chip.
    pub fn total_tiles(&self) -> u32 {
        self.chips.iter().map(|c| c.solution.total_tiles).sum()
    }

    /// Total compute power across every chip (mW, excluding bridge
    /// transfer energy — that is priced by `synchro-power` from the
    /// simulated bridge slot activity).
    pub fn total_power_mw(&self) -> f64 {
        self.chips.iter().map(|c| c.solution.power_mw).sum()
    }

    /// The chip-qualified mapping over the *original* graph, ready for
    /// board compilation: chip `c`'s columns become
    /// `place_on_chip(c, ..)` placements in pipeline order.
    pub fn mapping(&self) -> Mapping {
        let mut mapping = Mapping::new();
        for (chip, ce) in self.chips.iter().enumerate() {
            for col in &ce.solution.columns {
                let local = col.actors.first().expect("column has actors").0;
                mapping.place_on_chip(
                    chip,
                    ActorId(ce.start + local),
                    col.tiles,
                    ce.solution.efficiency,
                );
            }
        }
        mapping
    }
}

/// Shard `graph` across up to [`BoardSearch::max_chips`] chips: try chip
/// counts ascending (a feasible single chip needs no board), and per
/// count rank every contiguous split min-cut first (fewest cut words,
/// then best work balance), attempting per-chip explorations — each chip
/// budgeted at `config.tile_budget` and pruned by `config.comm` — until
/// one split is feasible on every chip.
///
/// Each chip's subgraph keeps its actors' global firing rates: a range
/// whose repetition counts share a factor `g` iterates `g` times faster
/// than the whole graph, so its exploration runs at
/// `iteration_rate_hz × g`.  Board exploration is restricted to
/// single-actor columns so the winning mapping stays expressible over
/// the original graph (fusion-aware partitioning is a recorded
/// follow-up).
///
/// Reads the partition bounds from [`ExplorerConfig::board`]
/// (defaulting to [`BoardSearch::default`] when unset).
///
/// # Errors
///
/// [`ExplorerError::BoardInfeasible`] when no attempted split is
/// feasible on every chip; analysis errors propagate as in [`explore`].
pub fn explore_board(
    graph: &SdfGraph,
    config: &ExplorerConfig,
) -> Result<BoardExploration, ExplorerError> {
    let result = explore_board_impl(graph, config);
    reject_on_err(&config.trace, &result);
    result
}

fn explore_board_impl(
    graph: &SdfGraph,
    config: &ExplorerConfig,
) -> Result<BoardExploration, ExplorerError> {
    let board = config.board.unwrap_or_default();
    let ctx = GraphContext::new(graph)?;
    let reps = graph.repetition_vector()?;
    let n = ctx.n;
    let max_chips = board.max_chips.clamp(1, n.max(1));
    let mut splits_tried = 0usize;
    // A split ranked by (bridge cut words, work imbalance, lexicographic).
    type RankedSplit = (u64, u64, Vec<(usize, usize)>);
    for chips in 1..=max_chips {
        let mut candidates: Vec<RankedSplit> = contiguous_splits(n, chips)
            .into_iter()
            .map(|split| {
                let cut = ctx.grouping_cross_words(&split);
                let works: Vec<u64> = split
                    .iter()
                    .map(|&(start, end)| ctx.group_work(start, end))
                    .collect();
                let imbalance = works.iter().max().unwrap_or(&0) - works.iter().min().unwrap_or(&0);
                (cut, imbalance, split)
            })
            .collect();
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for (cut, _, split) in candidates
            .into_iter()
            .take(board.splits_per_chip_count.max(1))
        {
            // Bridge-capacity prune: the board-level analogue of the
            // per-chip comm prune — a split whose cut traffic cannot fit
            // the bridges is unschedulable under any per-chip mapping.
            if board.bridge_capacity.is_some_and(|cap| cut > cap) {
                continue;
            }
            splits_tried += 1;
            if let Some((chips, stats)) = explore_split(graph, config, &reps, &split) {
                return Ok(BoardExploration {
                    chips,
                    bridge_words_per_iteration: cut,
                    splits_tried,
                    stats,
                });
            }
        }
    }
    Err(ExplorerError::BoardInfeasible {
        max_chips,
        splits_tried,
    })
}

/// Every way to split `0..n` into `chips` non-empty contiguous ranges.
fn contiguous_splits(n: usize, chips: usize) -> Vec<Vec<(usize, usize)>> {
    fn recurse(
        n: usize,
        chips: usize,
        cuts: &mut Vec<usize>,
        result: &mut Vec<Vec<(usize, usize)>>,
    ) {
        let placed = cuts.len();
        if placed == chips - 1 {
            let mut split = Vec::with_capacity(chips);
            let mut start = 0usize;
            for &cut in cuts.iter() {
                split.push((start, cut));
                start = cut;
            }
            split.push((start, n));
            result.push(split);
            return;
        }
        let lower = cuts.last().map_or(1, |&c| c + 1);
        // Leave room for the remaining boundaries (strictly increasing,
        // all below n).
        let upper = n - (chips - 1 - placed - 1) - 1;
        for cut in lower..=upper {
            cuts.push(cut);
            recurse(n, chips, cuts, result);
            cuts.pop();
        }
    }
    if chips == 0 || chips > n {
        return Vec::new();
    }
    let mut result = Vec::new();
    let mut cuts = Vec::with_capacity(chips.saturating_sub(1));
    recurse(n, chips, &mut cuts, &mut result);
    result
}

/// Attempt one split: explore every chip's subgraph independently and
/// accept only when every chip's winner is feasible.  Any per-chip
/// failure (budget, comm, infeasible envelope, inconsistent subgraph)
/// rejects the split.
fn explore_split(
    graph: &SdfGraph,
    config: &ExplorerConfig,
    reps: &[u64],
    split: &[(usize, usize)],
) -> Option<(Vec<ChipExploration>, SearchStats)> {
    let mut chips = Vec::with_capacity(split.len());
    let mut stats = SearchStats::default();
    for &(start, end) in split {
        let (sub, rate_factor) = chip_subgraph(graph, reps, start, end)?;
        let sub_config = ExplorerConfig {
            iteration_rate_hz: config.iteration_rate_hz * rate_factor as f64,
            max_group_size: 1,
            board: None,
            ..config.clone()
        };
        let exploration = explore(&sub, &sub_config).ok()?;
        if !exploration.best.feasible {
            return None;
        }
        stats.mappings_evaluated += exploration.stats.mappings_evaluated;
        stats.groupings_examined += exploration.stats.groupings_examined;
        stats.states_pruned += exploration.stats.states_pruned;
        stats.groupings_comm_pruned += exploration.stats.groupings_comm_pruned;
        stats.threads_used = stats.threads_used.max(exploration.stats.threads_used);
        stats.elapsed_seconds += exploration.stats.elapsed_seconds;
        chips.push(ChipExploration {
            start,
            end,
            solution: exploration.best,
        });
    }
    Some((chips, stats))
}

/// Extract the contiguous actor range `start..end` as a standalone graph
/// with its internal edges, returning it with the range's iteration-rate
/// factor: the gcd `g` of the range's repetition counts (the subgraph's
/// own repetition vector is the range's counts divided by `g`, so it
/// iterates `g` times per whole-graph iteration).  Returns `None` when
/// the extracted range does not normalise that way (e.g. a disconnected
/// range whose components renormalise independently) — such a split
/// cannot preserve per-actor firing rates and is rejected.
fn chip_subgraph(
    graph: &SdfGraph,
    reps: &[u64],
    start: usize,
    end: usize,
) -> Option<(SdfGraph, u64)> {
    let rate_factor = reps[start..end].iter().copied().fold(0u64, gcd);
    if rate_factor == 0 {
        return None;
    }
    let mut sub = SdfGraph::new();
    for actor in &graph.actors()[start..end] {
        sub.add_actor(
            actor.name.clone(),
            actor.cycles_per_firing,
            actor.max_parallel_tiles,
        );
    }
    for edge in graph.edges() {
        if (start..end).contains(&edge.from.0) && (start..end).contains(&edge.to.0) {
            sub.add_edge(
                ActorId(edge.from.0 - start),
                ActorId(edge.to.0 - start),
                edge.produce,
                edge.consume,
                edge.initial_tokens,
            )
            .ok()?;
        }
    }
    let expected: Vec<u64> = reps[start..end].iter().map(|&r| r / rate_factor).collect();
    if sub.repetition_vector().ok()? != expected {
        return None;
    }
    Some((sub, rate_factor))
}

/// Stable hooks for the repo's criterion benches, exposing the search
/// core's internal stages (interval-arena build, single-grouping DP) so
/// per-stage regressions are visible without making the internals part of
/// the supported API.  Not for downstream use.
#[doc(hidden)]
pub mod perf {
    use crate::model::{Evaluator, GraphContext};
    use crate::search::{grouping_dp, DpScratch, IntervalArena};
    use crate::{ExplorerConfig, ExplorerError};
    use synchro_sdf::SdfGraph;

    /// A graph analysed and interval-evaluated once, ready to run DP
    /// passes without rebuilding the arena.
    pub struct PreparedSearch {
        arena: IntervalArena,
        scratch: DpScratch,
        singleton: Vec<(usize, usize)>,
        budget: u32,
    }

    impl PreparedSearch {
        /// Analyse `graph` and build the interval arena under `config`.
        ///
        /// # Errors
        ///
        /// Propagates graph-analysis failures.
        pub fn new(graph: &SdfGraph, config: &ExplorerConfig) -> Result<Self, ExplorerError> {
            let ctx = GraphContext::new(graph)?;
            let evaluator =
                Evaluator::new(&config.tech, config.iteration_rate_hz, config.efficiency);
            let max_group_size = config.max_group_size.clamp(1, ctx.n.max(1));
            let arena = IntervalArena::build(
                &ctx,
                &evaluator,
                config.candidates,
                config.tile_budget,
                max_group_size,
            );
            let singleton = (0..ctx.n).map(|i| (i, i + 1)).collect();
            Ok(PreparedSearch {
                arena,
                scratch: DpScratch::new(config.tile_budget, ctx.n),
                singleton,
                budget: config.tile_budget,
            })
        }

        /// Total interval options evaluated into the arena.
        pub fn option_count(&self) -> usize {
            self.arena.option_count()
        }

        /// Run the backpointer DP over the all-singleton grouping and
        /// return the transitions examined (the unit `mappings/s`
        /// counts).
        pub fn singleton_dp(&mut self) -> u64 {
            grouping_dp(&self.singleton, &self.arena, self.budget, &mut self.scratch)
        }
    }
}

/// Re-evaluate a candidate's columns in full detail and package it as a
/// public solution.  Under [`VoltagePolicy::SingleVoltage`] every column
/// is re-priced at the chip-wide maximum required voltage (the same
/// semantics the analytic pipeline's single-voltage comparison uses).
fn realize_candidate(
    graph: &SdfGraph,
    ctx: &GraphContext,
    evaluator: &Evaluator,
    groups: &[(usize, usize)],
    allocation: &[u32],
    policy: VoltagePolicy,
) -> ExplorerSolution {
    let mut evals = Vec::with_capacity(groups.len());
    for (&(start, end), &tiles) in groups.iter().zip(allocation) {
        evals.push(evaluator.evaluate_column(
            ctx.group_work(start, end),
            ctx.group_cap(start, end),
            ctx.boundary_tokens(start, end),
            tiles,
        ));
    }
    if policy == VoltagePolicy::SingleVoltage {
        let shared = evals.iter().map(|e| e.voltage).fold(0.0, f64::max);
        evals = groups
            .iter()
            .zip(&evals)
            .map(|(&(start, end), base)| {
                evaluator.reprice_at_voltage(
                    base,
                    ctx.group_cap(start, end),
                    ctx.boundary_tokens(start, end),
                    shared,
                )
            })
            .collect();
    }
    let mut columns = Vec::with_capacity(groups.len());
    let mut power_mw = 0.0;
    let mut feasible = true;
    for (&(start, end), eval) in groups.iter().zip(&evals) {
        power_mw += eval.power.total_mw();
        feasible &= eval.within_envelope;
        let members = &graph.actors()[start..end];
        columns.push(ColumnSolution {
            actors: (start..end).map(ActorId).collect(),
            name: members
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>()
                .join("+"),
            tiles: eval.tiles,
            frequency_mhz: eval.frequency_mhz,
            voltage: eval.voltage,
            within_envelope: eval.within_envelope,
            power: eval.power,
        });
    }
    ExplorerSolution {
        columns,
        total_tiles: allocation.iter().sum(),
        power_mw,
        feasible,
        efficiency: evaluator.efficiency(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DDC front end (Table 4 cycle counts) at 16 M iterations/s.
    fn ddc() -> SdfGraph {
        let mut g = SdfGraph::new();
        let mixer = g.add_actor("Digital Mixer", 15, 16);
        let integ = g.add_actor("CIC Integrator", 25, 16);
        let comb = g.add_actor("CIC Comb", 5, 4);
        let cfir = g.add_actor("CFIR", 380, 32);
        let pfir = g.add_actor("PFIR", 370, 32);
        g.add_edge(mixer, integ, 1, 1, 0).unwrap();
        g.add_edge(integ, comb, 1, 4, 0).unwrap();
        g.add_edge(comb, cfir, 1, 1, 0).unwrap();
        g.add_edge(cfir, pfir, 1, 1, 0).unwrap();
        g
    }

    fn ddc_reference_mapping(g: &SdfGraph) -> Mapping {
        let mut m = Mapping::new();
        for (i, tiles) in [8u32, 8, 2, 16, 16].into_iter().enumerate() {
            m.place(ActorId(i), tiles, 1.0);
        }
        let _ = g;
        m
    }

    #[test]
    fn single_actor_search_rediscovers_the_table4_ddc_mapping() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let exploration = explore(&g, &config).unwrap();
        let at_budget = exploration.solution_for_tiles(50).expect("50 reachable");
        assert_eq!(at_budget.allocation(), vec![8, 8, 2, 16, 16]);
        let freqs = at_budget.frequencies_mhz();
        for (got, want) in freqs.iter().zip([120.0, 200.0, 40.0, 380.0, 370.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(at_budget.feasible);
        // The overall winner is at least as cheap as the hand mapping.
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &config).unwrap();
        assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
    }

    #[test]
    fn grouping_search_beats_the_hand_built_ddc_mapping() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50);
        let grouped = explore(&g, &config).unwrap();
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &config).unwrap();
        assert!(
            grouped.best.power_mw < reference.power_mw,
            "fusion should beat the reference: {} vs {}",
            grouped.best.power_mw,
            reference.power_mw
        );
        assert!(grouped.best.feasible);
    }

    #[test]
    fn engines_agree_on_best_and_frontier() {
        let g = ddc();
        let base = ExplorerConfig::new(16e6, 40);
        let exhaustive =
            explore(&g, &base.clone().with_strategy(SearchStrategy::Exhaustive)).unwrap();
        let beam = explore(&g, &base.with_strategy(SearchStrategy::Beam { width: 64 })).unwrap();
        assert!((exhaustive.best.power_mw - beam.best.power_mw).abs() < 1e-6);
        let ef: Vec<(u32, u64)> = exhaustive
            .frontier
            .iter()
            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
            .collect();
        let bf: Vec<(u32, u64)> = beam
            .frontier
            .iter()
            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
            .collect();
        assert_eq!(ef, bf);
    }

    #[test]
    fn frontier_is_non_dominated_and_curve_respects_budget() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50)).unwrap();
        assert!(!exploration.frontier.is_empty());
        for s in &exploration.curve {
            assert!(s.total_tiles <= 50);
            assert!(s.power_mw > 0.0);
        }
        for pair in exploration.frontier.windows(2) {
            assert!(pair[0].total_tiles < pair[1].total_tiles);
            assert!(pair[0].power_mw > pair[1].power_mw);
        }
        // The frontier covers feasible designs; no feasible curve point
        // may dominate a frontier point.
        for a in &exploration.frontier {
            for b in exploration.curve.iter().filter(|s| s.feasible) {
                assert!(
                    !(dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw)),
                    "frontier point dominated by a feasible curve point"
                );
            }
        }
    }

    #[test]
    fn realized_solutions_round_trip_through_requirements() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50)).unwrap();
        for solution in exploration.frontier.iter().chain([&exploration.best]) {
            let (graph, mapping) = solution.realize(&g).unwrap();
            assert!(mapping.validate(&graph).is_empty());
            let requirements = mapping.requirements(&graph, 16e6).unwrap();
            for (req, col) in requirements.iter().zip(&solution.columns) {
                assert!(
                    (req.frequency_mhz - col.frequency_mhz).abs()
                        < 1e-6 * col.frequency_mhz.max(1.0),
                    "{}: {} vs {}",
                    col.name,
                    req.frequency_mhz,
                    col.frequency_mhz
                );
            }
        }
    }

    #[test]
    fn budget_too_small_is_reported() {
        let g = ddc();
        let err = explore(&g, &ExplorerConfig::new(16e6, 3).single_actor_columns()).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BudgetTooSmall {
                min_groups: 5,
                budget: 3
            }
        ));
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn failed_explorations_emit_structured_rejections() {
        use std::sync::Arc;
        use synchro_trace::RingBufferSink;

        let g = ddc();
        let ring = Arc::new(RingBufferSink::new(64));
        let config = ExplorerConfig::new(16e6, 3)
            .single_actor_columns()
            .with_trace(Trace::to(ring.clone()));
        let err = explore(&g, &config).unwrap_err();
        assert_eq!(err.code(), "budget_too_small");
        let rejects: Vec<(&'static str, String)> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RouteReject(reject) => Some((reject.code, reject.detail.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(rejects.len(), 1);
        assert_eq!(rejects[0].0, "budget_too_small");
        assert!(rejects[0].1.contains("tile budget 3"));
    }

    #[test]
    fn evaluate_mapping_rejects_malformed_mappings() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50);
        let mut over = Mapping::new();
        for (i, tiles) in [8u32, 8, 9, 16, 16].into_iter().enumerate() {
            over.place(ActorId(i), tiles, 1.0); // comb cap is 4
        }
        assert!(matches!(
            evaluate_mapping(&g, &over, &config),
            Err(ExplorerError::InvalidMapping { .. })
        ));
        let mut partial = Mapping::new();
        partial.place(ActorId(0), 8, 1.0);
        assert!(matches!(
            evaluate_mapping(&g, &partial, &config),
            Err(ExplorerError::IncompleteMapping { .. })
        ));
    }

    #[test]
    fn threads_do_not_change_the_result() {
        let g = ddc();
        let one = explore(&g, &ExplorerConfig::new(16e6, 50).with_threads(1)).unwrap();
        let many = explore(&g, &ExplorerConfig::new(16e6, 50).with_threads(8)).unwrap();
        assert_eq!(one.best.allocation(), many.best.allocation());
        assert_eq!(one.best.power_mw.to_bits(), many.best.power_mw.to_bits());
        assert_eq!(one.curve.len(), many.curve.len());
        assert_eq!(one.stats.mappings_evaluated, many.stats.mappings_evaluated);
    }

    #[test]
    fn backward_edges_disable_fusion_so_winners_stay_realizable() {
        // A valid DAG whose actor-id order is not topological: a0 → a2 → a1.
        // Fusing the index-adjacent (but dataflow-non-adjacent) a0+a1
        // would cluster into a deadlocked cycle, so the search must fall
        // back to single-actor columns.
        let mut g = SdfGraph::new();
        let a0 = g.add_actor("a0", 100, 8);
        let a1 = g.add_actor("a1", 150, 8);
        let a2 = g.add_actor("a2", 120, 8);
        g.add_edge(a0, a2, 1, 1, 0).unwrap();
        g.add_edge(a2, a1, 1, 1, 0).unwrap();
        let exploration = explore(&g, &ExplorerConfig::new(1e6, 12)).unwrap();
        for solution in exploration.curve.iter().chain([&exploration.best]) {
            assert!(solution.is_single_actor_columns());
            let (graph, mapping) = solution.realize(&g).unwrap();
            assert!(graph.schedule().is_ok());
            assert!(mapping.validate(&graph).is_empty());
        }
    }

    #[test]
    fn infeasible_budgets_return_flagged_solutions() {
        // One serial actor that needs far more than the envelope allows.
        let mut g = SdfGraph::new();
        g.add_actor("serial", 5_000, 1);
        let exploration = explore(&g, &ExplorerConfig::new(1e6, 4)).unwrap();
        assert!(!exploration.best.feasible);
        assert!(exploration.best.columns[0].voltage > 1.7);
    }

    #[test]
    fn single_voltage_policy_costs_at_least_per_column() {
        let g = ddc();
        let per_column = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let single = per_column
            .clone()
            .with_voltage_policy(VoltagePolicy::SingleVoltage);
        let pc = explore(&g, &per_column).unwrap();
        let sv = explore(&g, &single).unwrap();
        // Same mapping structure at the reference budget, higher cost.
        let pc50 = pc.solution_for_tiles(50).unwrap();
        let sv50 = sv.solution_for_tiles(50).unwrap();
        assert_eq!(pc50.allocation(), sv50.allocation());
        assert!(sv50.power_mw > pc50.power_mw);
        // Every column runs at the chip-wide maximum required voltage.
        let shared = pc50.columns.iter().map(|c| c.voltage).fold(0.0, f64::max);
        for col in &sv50.columns {
            assert!((col.voltage - shared).abs() < 1e-12, "{}", col.name);
        }
        // Frequencies are unchanged — only the supply moved.
        assert_eq!(pc50.frequencies_mhz(), sv50.frequencies_mhz());
        // evaluate_mapping prices the reference mapping identically.
        let reference = evaluate_mapping(&g, &ddc_reference_mapping(&g), &single).unwrap();
        assert!((reference.power_mw - sv50.power_mw).abs() < 1e-9);
    }

    #[test]
    fn reference_comm_configuration_keeps_table4_points_schedulable() {
        // The DDC moves 10 words per iteration; the reference bus (one
        // split at 400 MHz over 16 M iterations/s → 25 slots) must keep
        // the Table 4 operating point intact.
        let g = ddc();
        let comm = CommSpec::from_clock(1, 400e6, 16e6);
        assert_eq!(comm.period, 25);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm);
        let exploration = explore(&g, &config).unwrap();
        assert_eq!(exploration.stats.groupings_comm_pruned, 0);
        let at_budget = exploration.solution_for_tiles(50).expect("50 reachable");
        assert_eq!(at_budget.allocation(), vec![8, 8, 2, 16, 16]);
        // A frame too small for the 10 words rejects the whole
        // single-actor space as communication-infeasible.
        let narrow = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 6));
        assert!(matches!(
            explore(&g, &narrow),
            Err(ExplorerError::CommInfeasible {
                capacity: 6,
                pruned: 1
            })
        ));
        // With fusion allowed, the search routes around the narrow bus by
        // fusing the rate-changing front end.
        let fused = explore(
            &g,
            &ExplorerConfig::new(16e6, 50).with_comm(CommSpec::new(1, 6)),
        )
        .unwrap();
        assert!(fused.stats.groupings_comm_pruned > 0);
        assert!(!fused.best.is_single_actor_columns());
    }

    #[test]
    fn bus_width_sweep_exposes_the_feasibility_knee() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        // Period 6: a single split (6 slots) cannot carry the 10 words,
        // two splits (12 slots) can.
        let points = explore_bus_widths(&g, &config, CommSpec::new(1, 6), &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        assert!(matches!(
            points[0].outcome,
            Err(ExplorerError::CommInfeasible { .. })
        ));
        for point in &points[1..] {
            let exploration = point.outcome.as_ref().expect("wide enough");
            assert!(exploration.best.feasible);
        }
        assert_eq!(points[2].comm.splits, 4);
        // Segment groups widen the optimistic capacity the same way.
        assert_eq!(CommSpec::new(1, 6).with_segment_groups(2).capacity(), 12);
    }

    #[test]
    fn stats_count_work_and_record_threads() {
        let g = ddc();
        let exploration = explore(&g, &ExplorerConfig::new(16e6, 50).with_threads(2)).unwrap();
        assert!(exploration.stats.mappings_evaluated > 0);
        assert!(exploration.stats.groupings_examined >= 1);
        assert_eq!(exploration.stats.threads_used, 2);
        assert!(exploration.stats.elapsed_seconds >= 0.0);
    }

    #[test]
    fn budget_sweep_matches_fresh_explores_bit_for_bit() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).single_actor_columns();
        let budgets = [50u32, 40, 24, 3];
        let points = explore_budget_sweep(&g, &config, &budgets);
        assert_eq!(points.len(), budgets.len());
        for (point, &budget) in points.iter().zip(&budgets) {
            assert_eq!(point.budget, budget);
            let fresh = explore(
                &g,
                &ExplorerConfig {
                    tile_budget: budget,
                    ..config.clone()
                },
            );
            match (&point.outcome, &fresh) {
                (Ok(swept), Ok(full)) => {
                    assert_eq!(
                        swept.best.power_mw.to_bits(),
                        full.best.power_mw.to_bits(),
                        "budget {budget}"
                    );
                    assert_eq!(swept.best.allocation(), full.best.allocation());
                    let curve = |e: &Exploration| {
                        e.curve
                            .iter()
                            .map(|s| (s.total_tiles, s.power_mw.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(curve(swept), curve(full));
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("budget {budget}: sweep {a:?} vs fresh {b:?}"),
            }
        }
        assert!(matches!(
            points[3].outcome,
            Err(ExplorerError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn board_of_one_matches_the_single_chip_explorer() {
        let g = ddc();
        let config = ExplorerConfig::new(16e6, 50).with_board(BoardSearch::new(1));
        let board = explore_board(&g, &config).unwrap();
        assert_eq!(board.chip_count(), 1);
        assert_eq!(board.bridge_words_per_iteration, 0);
        assert_eq!((board.chips[0].start, board.chips[0].end), (0, 5));
        // A one-chip board degenerates to the single-chip single-actor
        // search, bit for bit.
        let single = explore(&g, &ExplorerConfig::new(16e6, 50).single_actor_columns()).unwrap();
        assert_eq!(
            board.chips[0].solution.power_mw.to_bits(),
            single.best.power_mw.to_bits()
        );
        assert_eq!(
            board.chips[0].solution.allocation(),
            single.best.allocation()
        );
        let mapping = board.mapping();
        assert_eq!(mapping.chips(), 1);
        assert!(mapping.validate_on_board(&g, 1).is_empty());
    }

    #[test]
    fn board_splits_a_comm_starved_graph_across_two_chips() {
        // The single-actor DDC needs 10 cross words per iteration; a
        // 6-slot frame rejects every single-chip mapping (see
        // `reference_comm_configuration_keeps_table4_points_schedulable`)
        // but a 2-chip split routes the worst boundary over a bridge.
        let comm = CommSpec::new(1, 6);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(BoardSearch::new(2));
        let board = explore_board(&ddc(), &config).unwrap();
        assert_eq!(board.chip_count(), 2);
        // The winner is the best balanced split whose chips both fit the
        // frame: mixer+integrator on chip 0 (no internal traffic beyond
        // the fused front end), the rest on chip 1 (6 words ≤ 6 slots),
        // with the 4-word rate-change boundary on the bridge.
        assert_eq!((board.chips[0].start, board.chips[0].end), (0, 2));
        assert_eq!((board.chips[1].start, board.chips[1].end), (2, 5));
        assert_eq!(board.bridge_words_per_iteration, 4);
        assert!(board.splits_tried >= 2, "cheaper cuts are tried first");
        for chip in &board.chips {
            assert!(chip.solution.feasible);
        }
        assert!(board.total_tiles() > 0);
        assert!(board.total_power_mw() > 0.0);
        let mapping = board.mapping();
        assert_eq!(mapping.chips(), 2);
        assert_eq!(mapping.placements().len(), 5);
        assert!(mapping.validate_on_board(&ddc(), 2).is_empty());
        // The chip-local actor ids recover the original actors: chip 1's
        // first column is the CIC comb (global actor 2).
        assert_eq!(mapping.placements()[2].actor, ActorId(2));
        assert_eq!(mapping.placements()[2].chip, 1);
    }

    #[test]
    fn board_search_reports_exhaustion_and_respects_bridge_capacity() {
        // No frame capacity at all: every split leaves some chip with
        // internal traffic, so the whole board space is infeasible.
        let starved = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 0))
            .with_board(BoardSearch::new(2));
        let err = explore_board(&ddc(), &starved).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BoardInfeasible { max_chips: 2, .. }
        ));
        assert!(err.to_string().contains("2 chip"));
        // A zero-capacity bridge prunes every multi-chip split before it
        // is attempted: only the (infeasible) single-chip split is tried.
        let bridgeless = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(CommSpec::new(1, 6))
            .with_board(BoardSearch::new(4).with_bridge_capacity(0));
        let err = explore_board(&ddc(), &bridgeless).unwrap_err();
        assert!(matches!(
            err,
            ExplorerError::BoardInfeasible {
                max_chips: 4,
                splits_tried: 1
            }
        ));
    }

    #[test]
    fn board_chips_preserve_global_firing_rates() {
        // Chip 0 hosts the 4×-rate front end (mixer + integrator fire
        // four times per graph iteration): its subgraph's repetition
        // vector normalises to [1, 1], so its sub-exploration must run
        // at 4 × 16 MHz for the actors to keep their global work rates.
        // Every column's frequency must therefore equal the actor's
        // whole-graph work (cycles × repetitions × 16 MHz) over its
        // tiles, exactly as on a single chip.
        let comm = CommSpec::new(1, 6);
        let config = ExplorerConfig::new(16e6, 50)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(BoardSearch::new(2));
        let board = explore_board(&ddc(), &config).unwrap();
        let cycles = [15.0f64, 25.0, 5.0, 380.0, 370.0];
        let reps = [4.0f64, 4.0, 1.0, 1.0, 1.0];
        for chip in &board.chips {
            for col in &chip.solution.columns {
                let global = chip.start + col.actors[0].0;
                let want = cycles[global] * reps[global] * 16.0 / col.tiles as f64;
                assert!(
                    (col.frequency_mhz - want).abs() < 1e-6 * want,
                    "actor {global}: {} vs {want}",
                    col.frequency_mhz
                );
            }
        }
    }
}
