//! The SDF → chip mapping/execution subsystem: the bridge between the
//! analytic power pipeline and the cycle-accurate substrate.
//!
//! The paper's methodology (Section 4.1, steps 1–9) is a *flow*: describe
//! the application as an SDF graph, solve the balance equations, place the
//! actors on tile groups, rate-match the columns with clock dividers (plus
//! ZORM for the residue), compile static communication schedules, and only
//! then evaluate power.  The analytic half of that flow lives in
//! [`crate::pipeline`]; this module closes the loop by *compiling* an
//! [`SdfGraph`] + [`Mapping`] into a runnable [`synchro_sim::Chip`]:
//!
//! 1. solve the repetition vector, schedule and buffer bounds
//!    ([`SdfGraph`]),
//! 2. give every placed actor its own column with the right tile count and
//!    the supply voltage its required frequency demands ([`VfCurve`]),
//! 3. derive per-column clock dividers so that, per hyperperiod of the
//!    reference clock, each column executes exactly `reps × cycles`
//!    column cycles — firing rates match the repetition vector *exactly*
//!    (with a [`RateMatcher`] fallback when the exact divider would exceed
//!    the hardware range),
//! 4. emit a per-firing SIMD [`Program`] and a
//!    [`DouProgram`] that distributes each produced token across the
//!    column's tiles at a statically scheduled bus cycle,
//! 5. compile the inter-column traffic into a conflict-free periodic TDM
//!    slot schedule over the segmented horizontal bus
//!    (`synchro_route`, [`CompiledChip::route`]) — mappings whose traffic
//!    cannot be scheduled are rejected as [`MapperError::Route`],
//! 6. execute end to end, the chip's horizontal bus driven slot by slot
//!    from that schedule as the reference clock passes each slot, and
//! 7. cross-validate the measurements against the analytic
//!    [`ApplicationReport`] ([`cross_validate`]).
//!
//! Inter-column token payloads are not physically modelled — the chip's
//! horizontal bus is an accounting device, exactly as in the power
//! methodology — but firing *rates* are measured from the simulation and
//! bus traffic follows the static schedule cycle by cycle, with
//! scheduled-vs-occupied slot counts surviving into the power
//! calibration.

use std::error::Error;
use std::fmt;

use synchro_bus::{BusOp, BusStats, SegmentConfig};
use synchro_dou::{DouError, DouProgram, ScheduleCompiler};
use synchro_explore::{ExplorerError, ExplorerSolution};
use synchro_isa::{DataReg, Program, ProgramBuilder};
use synchro_power::{
    BusGeometry, InterconnectModel, LeakageModel, Technology, TilePowerModel, VfCurve,
};
use synchro_route::{board_flows, BoardRoute, BoardSpec, BusSpec, RouteError, RouteSchedule};
use synchro_sdf::{gcd, ActorId, FaultSpec, Mapping, MappingViolation, SdfError, SdfGraph};
use synchro_sim::fast::{ColumnBatch, FastTier, FastTierError, FiringProfile};
use synchro_sim::{
    Board, BridgeProgram, BridgeTransfer, BusProgram, BusSlot, Chip, Column, ColumnConfig,
    ColumnError, ColumnStats, FaultPlan, FaultTarget, SimFault,
};
use synchro_simd::RateMatcher;
use synchro_trace::analyze::{BusPricing, ColumnPricing, PriceSpec};
use synchro_trace::report::TrackUtilization;
use synchro_trace::{Trace, TraceEvent};

use crate::pipeline::ApplicationReport;

/// Issue slots a firing spends outside its compute loop: the token-tag
/// load, the `send`, and the `recv`.
const FIRING_OVERHEAD_SLOTS: u64 = 3;

/// The DOU state machine holds 128 states; a firing pattern needs
/// `compute + FIRING_OVERHEAD_SLOTS` of them.
const MAX_COMPUTE_SLOTS: u64 = (synchro_dou::MAX_STATES as u64) - FIRING_OVERHEAD_SLOTS;

/// Errors raised while compiling or executing a mapped chip.
#[derive(Debug)]
pub enum MapperError {
    /// Graph analysis failed (inconsistent rates, deadlock, ...).
    Sdf(SdfError),
    /// A generated DOU schedule was rejected.
    Dou(DouError),
    /// The simulated chip faulted.
    Column(ColumnError),
    /// An actor of the graph has no placement in the mapping.
    UnplacedActor {
        /// The actor without a placement.
        actor: ActorId,
    },
    /// An actor was placed more than once.
    DuplicatePlacement {
        /// The actor placed twice.
        actor: ActorId,
    },
    /// The mapping failed [`Mapping::validate`]: zero-tile, over-parallel
    /// or unknown-actor placements that the lenient analytic accessors
    /// would silently reshape are rejected loudly here.
    InvalidMapping {
        /// The reported violations.
        violations: Vec<MappingViolation>,
    },
    /// Realizing an explorer solution failed.
    Explorer(ExplorerError),
    /// The inter-column traffic cannot be TDM-scheduled on the configured
    /// horizontal bus (unreachable pair, oversubscribed segment group, or
    /// the frame is too small for the per-iteration word demand).
    Route(RouteError),
    /// A derived quantity (hyperperiod, firing count, ...) overflowed its
    /// representation.
    Overflow {
        /// The quantity that overflowed.
        what: &'static str,
    },
    /// The chip did not drain within its computed tick budget.
    Incomplete {
        /// Reference ticks spent before giving up.
        ticks: u64,
    },
    /// The fast tier could not profile or batch the compiled programs
    /// (non-steady firing pattern, pre-stepped chip, ...).
    FastTier(FastTierError),
    /// The mapping targets hardware the [`MapperOptions::faults`] spec
    /// declares dead or degraded: a placement on a failed column or tile,
    /// a chip with every horizontal-bus split lost, or cross-chip traffic
    /// whose every bridge lane is down.  Unlike
    /// [`MapperError::InvalidMapping`] the mapping itself is well-formed —
    /// remapping around the lost resource (see
    /// `synchro_explore::explore_degraded`) can recover.
    Fault {
        /// The fault-class violations (every one satisfies
        /// [`MappingViolation::is_fault`]).
        violations: Vec<MappingViolation>,
    },
    /// A run was abandoned with a structured [`SimFault`] outcome: the
    /// starvation watchdog observed a full hyperperiod window with zero
    /// column, bus and bridge progress while columns were still live.
    SimFault(SimFault),
}

impl MapperError {
    /// Is this a resource-exhaustion failure — the inputs were well-posed
    /// but the configured hardware could not host or finish the run?
    /// Covers the router's and explorer's exhaustion classes plus
    /// [`MapperError::Incomplete`] (the tick budget is a resource too).
    pub fn is_resource_exhaustion(&self) -> bool {
        match self {
            MapperError::Route(e) => e.is_resource_exhaustion(),
            MapperError::Explorer(e) => e.is_resource_exhaustion(),
            MapperError::Incomplete { .. } => true,
            _ => false,
        }
    }

    /// A stable machine-readable code naming the failure class, so
    /// tooling can label rejections without parsing `Display` text.
    /// Router and explorer failures report their own
    /// [`RouteError::code`] / [`ExplorerError::code`]; where one of
    /// those matches a code below (`sdf`, `invalid_mapping`) it names the
    /// same class of failure.
    pub fn code(&self) -> &'static str {
        match self {
            MapperError::Sdf(_) => "sdf",
            MapperError::Dou(_) => "dou",
            MapperError::Column(_) => "column",
            MapperError::UnplacedActor { .. } => "unplaced_actor",
            MapperError::DuplicatePlacement { .. } => "duplicate_placement",
            MapperError::InvalidMapping { .. } => "invalid_mapping",
            MapperError::Explorer(e) => e.code(),
            MapperError::Route(e) => e.code(),
            MapperError::Overflow { .. } => "overflow",
            MapperError::Incomplete { .. } => "incomplete",
            MapperError::FastTier(_) => "fast_tier",
            MapperError::Fault { .. } => "fault",
            MapperError::SimFault(_) => "sim_fault",
        }
    }

    /// Is this failure caused by dead or degraded hardware (a
    /// [`FaultSpec`] rejection or a runtime [`SimFault`]) rather than by
    /// the inputs themselves?  Fault-class errors are the retryable class
    /// degraded-mode remapping recovers from.
    pub fn is_fault(&self) -> bool {
        matches!(self, MapperError::Fault { .. } | MapperError::SimFault(_))
    }
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperError::Sdf(e) => write!(f, "graph analysis: {e}"),
            MapperError::Dou(e) => write!(f, "DOU schedule: {e}"),
            MapperError::Column(e) => write!(f, "simulation: {e}"),
            MapperError::UnplacedActor { actor } => {
                write!(f, "actor {} has no placement", actor.0)
            }
            MapperError::DuplicatePlacement { actor } => {
                write!(f, "actor {} is placed more than once", actor.0)
            }
            MapperError::InvalidMapping { violations } => {
                write!(f, "mapping has {} violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            MapperError::Explorer(e) => write!(f, "explorer solution: {e}"),
            MapperError::Route(e) => write!(f, "communication schedule: {e}"),
            MapperError::Overflow { what } => write!(f, "{what} overflowed"),
            MapperError::Incomplete { ticks } => {
                write!(f, "chip did not halt within {ticks} reference ticks")
            }
            MapperError::FastTier(e) => write!(f, "fast tier: {e}"),
            MapperError::Fault { violations } => {
                write!(
                    f,
                    "mapping targets failed hardware ({} violation(s))",
                    violations.len()
                )?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            MapperError::SimFault(e) => write!(f, "hardware fault: {e}"),
        }
    }
}

impl Error for MapperError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapperError::Sdf(e) => Some(e),
            MapperError::Dou(e) => Some(e),
            MapperError::Column(e) => Some(e),
            MapperError::Explorer(e) => Some(e),
            MapperError::Route(e) => Some(e),
            MapperError::FastTier(e) => Some(e),
            MapperError::SimFault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SdfError> for MapperError {
    fn from(value: SdfError) -> Self {
        MapperError::Sdf(value)
    }
}

impl From<DouError> for MapperError {
    fn from(value: DouError) -> Self {
        MapperError::Dou(value)
    }
}

impl From<ColumnError> for MapperError {
    fn from(value: ColumnError) -> Self {
        MapperError::Column(value)
    }
}

impl From<ExplorerError> for MapperError {
    fn from(value: ExplorerError) -> Self {
        MapperError::Explorer(value)
    }
}

impl From<RouteError> for MapperError {
    fn from(value: RouteError) -> Self {
        MapperError::Route(value)
    }
}

impl From<FastTierError> for MapperError {
    fn from(value: FastTierError) -> Self {
        MapperError::FastTier(value)
    }
}

/// Which execution strategy [`CompiledChip::execute`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionTier {
    /// Interpret every column cycle — the reference semantics.
    #[default]
    Interpreted,
    /// Profile one firing per column through the interpreter, then batch
    /// the remaining firings as closed-form counter updates
    /// ([`synchro_sim::fast`]).  Statistics are bit-identical to the
    /// interpreted tier; tile register files are not reproduced.
    Fast,
}

/// Options controlling one compilation.
#[derive(Debug, Clone)]
pub struct MapperOptions {
    /// Graph iterations the compiled programs execute before halting.
    pub iterations: u64,
    /// Target graph-iteration rate.  Annotates each column with the
    /// frequency/voltage operating point the analytic pipeline would
    /// assign, and fixes the TDM frame size together with
    /// `bus_frequency_hz` (so it gates communication schedulability,
    /// though not the functional column simulation).
    pub iteration_rate_hz: f64,
    /// Upper bound on simulated compute slots per firing.  When the
    /// largest actor cost exceeds this, every cost is scaled down
    /// proportionally so relative column rates are preserved while the
    /// per-firing DOU pattern stays within the 128-state FSM.
    pub compute_cycle_cap: u64,
    /// Largest exact clock divider; beyond it the column falls back to the
    /// nearest divider plus ZORM throttling ([`RateMatcher`]).
    pub max_divider: u32,
    /// Technology used for the voltage annotation.
    pub tech: Technology,
    /// Horizontal-bus width in words per cycle (independent splits the TDM
    /// schedule may pack concurrently).  The paper's single horizontal bus
    /// is one word per cycle.
    pub bus_splits: usize,
    /// Horizontal-bus clock in Hz.  Together with `iteration_rate_hz` it
    /// fixes the TDM period (bus cycles per graph iteration); narrowing it
    /// shrinks the frame until the per-iteration traffic no longer fits
    /// and [`compile`] rejects the mapping as communication-infeasible.
    pub bus_frequency_hz: f64,
    /// Segment switch configuration of the horizontal bus.  `None` keeps
    /// the paper's column-spanning broadcast bus; a [`SegmentConfig`]
    /// restricts which column pairs each split can connect, and mappings
    /// whose traffic crosses an open switch are rejected as
    /// [`RouteError::Unreachable`].
    pub bus_segments: Option<SegmentConfig>,
    /// Hardware the compiler must treat as dead or degraded: failed
    /// columns/tiles reject any mapping placed on them
    /// ([`MapperError::Fault`]), lost bus splits shrink the chip's TDM
    /// capacity, and failed or degraded bridge lanes are removed from (or
    /// narrowed in) the board spec before routing.  The default
    /// [`FaultSpec::none`] compiles for healthy silicon.
    pub faults: FaultSpec,
    /// Execution strategy [`CompiledChip::execute`] uses.
    pub tier: ExecutionTier,
    /// Trace handle compilation and execution events flow through.  The
    /// default [`Trace::off`] is zero-cost; install a sink (e.g. a
    /// [`synchro_trace::RingBufferSink`]) to observe mapper/router compile
    /// phases and, through the compiled chip or board, the simulation
    /// event stream (divider ticks, ZORM stalls, bus/bridge slots,
    /// per-column firing totals).
    pub trace: Trace,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            iterations: 8,
            iteration_rate_hz: 1e6,
            compute_cycle_cap: 100,
            max_divider: 1 << 20,
            tech: Technology::isca2004(),
            bus_splits: 1,
            bus_frequency_hz: 400e6,
            bus_segments: None,
            faults: FaultSpec::none(),
            tier: ExecutionTier::Interpreted,
            trace: Trace::off(),
        }
    }
}

/// Board-level options for [`compile_board`]: the chip-to-chip bridge
/// fabric joining the chips.  The chip count itself is derived from the
/// mapping (`Mapping::chips`), not configured here; the board is built
/// with a full bridge mesh — one lane per ordered chip pair — so
/// feasibility is governed by capacity, not topology.
#[derive(Debug, Clone)]
pub struct BoardConfig {
    /// Words one bridge lane carries per bridge cycle.
    pub bridge_width_words: u64,
    /// Chip-to-chip hop latency in bridge cycles (recorded on the lanes;
    /// schedulability is capacity-bound, as for the horizontal bus).
    pub bridge_latency_cycles: u64,
    /// Energy per word crossing a bridge lane, in pJ — board-level I/O is
    /// priced per word rather than through the on-chip wire model.
    pub bridge_energy_pj_per_word: f64,
    /// Bridge clock in Hz.  Together with the mapper's
    /// `iteration_rate_hz` it fixes the bridge TDM period (bridge cycles
    /// per graph iteration), exactly like the horizontal-bus clock.
    pub bridge_frequency_hz: f64,
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig {
            bridge_width_words: 1,
            bridge_latency_cycles: 2,
            bridge_energy_pj_per_word: 2.0,
            bridge_frequency_hz: 200e6,
        }
    }
}

/// One column of the compiled chip: where an actor landed and at what
/// operating point.
#[derive(Debug, Clone)]
pub struct ColumnPlan {
    /// The mapped actor.
    pub actor: ActorId,
    /// The actor's name.
    pub name: String,
    /// The board chip hosting the column (0 on a single-chip compile).
    pub chip: usize,
    /// Index of the column in its chip.
    pub column: usize,
    /// Tiles the placement requested (the analytic view).
    pub tiles: u32,
    /// Tiles instantiated in the simulated column (placements wider than
    /// one physical column are folded into it; `columns_spanned` records
    /// the physical footprint).
    pub sim_tiles: usize,
    /// Physical 4-tile columns the placement spans.
    pub columns_spanned: u32,
    /// Firings per graph iteration (the repetition-vector entry).
    pub firings_per_iteration: u64,
    /// Simulated issue slots per firing (compute + communication).
    pub sim_cycles_per_firing: u64,
    /// Clock divider relative to the chip reference clock.
    pub clock_divider: u32,
    /// ZORM fallback when the exact divider exceeded the hardware range;
    /// `None` means firing rates are matched exactly by the divider alone.
    pub rate_matcher: Option<RateMatcher>,
    /// Per-tile frequency (MHz) the analytic model requires of this
    /// placement at the target iteration rate.
    pub required_frequency_mhz: f64,
    /// Supply voltage assigned from the VF curve for that frequency.
    pub voltage: f64,
}

/// One SDF edge whose endpoints live on different columns, with its
/// analytic traffic and staging requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEdge {
    /// Producing column.
    pub from_column: usize,
    /// Consuming column.
    pub to_column: usize,
    /// Tokens produced per firing of the producer.
    pub produce: u64,
    /// Words crossing the edge per graph iteration (one 32-bit word per
    /// token) — `SdfGraph::tokens_per_iteration` for this edge.
    pub words_per_iteration: u64,
    /// Maximum tokens simultaneously staged on the edge
    /// (`SdfGraph::buffer_bounds`).
    pub buffer_bound: u64,
}

/// Measurements from one end-to-end execution of a compiled chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Graph iterations executed.
    pub iterations: u64,
    /// Reference ticks consumed.
    pub reference_ticks: u64,
    /// Reference ticks one graph iteration occupies (the hyperperiod).
    pub hyperperiod: u64,
    /// Measured firings per column (from the broadcast counters).
    pub firing_counts: Vec<u64>,
    /// `iterations × repetition_vector` — the analytic prediction.
    pub expected_firings: Vec<u64>,
    /// Horizontal-bus words accounted from measured firings.
    pub simulated_horizontal_words: u64,
    /// Horizontal-bus words the analytic model predicts.
    pub predicted_horizontal_words: u64,
    /// Column clock cycles executed per column.
    pub column_cycles: Vec<u64>,
    /// Intra-column (segmented vertical bus) word transfers per column.
    pub intra_column_words: Vec<u64>,
    /// Horizontal-bus TDM slots the schedule reserved over this run
    /// (occupied + idle) — one numerator of the slot-activity power model.
    pub scheduled_bus_slots: u64,
    /// Reserved horizontal-bus slots that carried a word — the other
    /// numerator.
    pub occupied_bus_slots: u64,
    /// Full per-column execution counters over this run (cycles,
    /// broadcasts, branch and rate-match stalls, DOU word transfers), in
    /// column order.  `column_cycles` and `intra_column_words` above are
    /// projections of these kept for compatibility.
    pub column_stats: Vec<ColumnStats>,
    /// Per-column segmented vertical-bus statistics over this run
    /// (scheduled vs occupied slots, word transfers), in column order.
    pub column_bus: Vec<BusStats>,
}

impl ExecutionReport {
    /// Did every column fire exactly as the repetition vector predicts?
    pub fn firings_exact(&self) -> bool {
        self.firing_counts == self.expected_firings
    }

    /// Relative error of the simulated horizontal traffic against the
    /// analytic prediction (0.0 when both are zero).
    pub fn horizontal_traffic_error(&self) -> f64 {
        relative_error(
            self.simulated_horizontal_words as f64,
            self.predicted_horizontal_words as f64,
        )
    }
}

/// One block of a [`cross_validate`] comparison.
#[derive(Debug, Clone)]
pub struct BlockComparison {
    /// Block/actor name.
    pub name: String,
    /// Frequency the analytic [`ApplicationReport`] assigns (MHz).
    pub analytic_frequency_mhz: f64,
    /// Frequency the mapping derives from the SDF graph (MHz).
    pub mapped_frequency_mhz: f64,
    /// Relative disagreement between the two.
    pub frequency_error: f64,
}

/// The outcome of comparing a simulated execution against the analytic
/// application report.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// Per-block frequency comparisons, in placement order.
    pub blocks: Vec<BlockComparison>,
    /// Whether the mapping's placements and the report's blocks pair up
    /// one-to-one.  When false, `blocks` only covers the overlap and the
    /// comparison is structurally invalid (wrong application report for
    /// this chip).
    pub blocks_match: bool,
    /// Whether measured firing counts equal the repetition-vector
    /// prediction exactly.
    pub firings_exact: bool,
    /// Relative error of simulated vs predicted horizontal-bus words.
    pub bus_traffic_error: f64,
    /// Largest per-block frequency disagreement.
    pub max_frequency_error: f64,
}

impl CrossValidation {
    /// Do the two worlds agree within `tolerance` (every block compared,
    /// firing counts exact)?
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.blocks_match
            && self.firings_exact
            && self.bus_traffic_error <= tolerance
            && self.max_frequency_error <= tolerance
    }
}

/// Aggregate energy of one run, derived purely from execution-report
/// counters — the independent cross-check for the event-priced
/// [`synchro_trace::analyze::EnergyLedger`].  Both sides bill the same
/// physical quantities (billed column cycles, occupied bus slots, bridge
/// words) through the same `synchro-power` models, so the two totals
/// must agree to rounding; the `analyze_properties` suite pins that on
/// every reference profile across both execution tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportEnergy {
    /// Dynamic switching energy of all columns, joules.
    pub compute_j: f64,
    /// Supply-time leakage energy of all columns, joules.
    pub leakage_j: f64,
    /// Interconnect energy (horizontal buses + bridge lanes), joules.
    pub interconnect_j: f64,
    /// Wall-clock seconds the run spanned.
    pub duration_s: f64,
}

impl ReportEnergy {
    /// Compute + leakage + interconnect, joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.leakage_j + self.interconnect_j
    }

    /// Average power over the run, milliwatts (0 for a zero-length run).
    pub fn average_power_mw(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.total_j() / self.duration_s * 1e3
        }
    }
}

/// The supply voltage interconnect transfers switch at: the maximum
/// column voltage of the chip (the calibration convention the
/// route-schedule power summary uses).
fn bus_voltage(plans: &[ColumnPlan]) -> f64 {
    plans.iter().map(|p| p.voltage).fold(0.0, f64::max)
}

/// One chip's energy over one run per the report counters: every billed
/// cycle (stalls included — a stalled column still clocks) at the
/// column's operating point, leakage over the run, and every occupied
/// horizontal-bus slot.
fn chip_report_energy(
    plans: &[ColumnPlan],
    report: &ExecutionReport,
    tech: &Technology,
    duration_s: f64,
) -> ReportEnergy {
    let tile_power = TilePowerModel::new(tech);
    let leakage = LeakageModel::new(tech);
    let mut compute_j = 0.0;
    let mut leakage_j = 0.0;
    for (plan, stats) in plans.iter().zip(&report.column_stats) {
        compute_j += tile_power.energy_per_cycle_nj(plan.voltage)
            * 1e-9
            * f64::from(plan.tiles)
            * stats.cycles as f64;
        leakage_j += leakage.power_mw(plan.tiles, plan.voltage) * 1e-3 * duration_s;
    }
    let word_j = InterconnectModel::new(tech)
        .word_energy_j(&BusGeometry::horizontal(tech), bus_voltage(plans));
    ReportEnergy {
        compute_j,
        leakage_j,
        interconnect_j: word_j * report.occupied_bus_slots as f64,
        duration_s,
    }
}

/// Per-track utilization rows of one chip's run: one row per column
/// (useful cycles over executed cycles, branch and ZORM stalls excluded
/// from busy) plus the horizontal bus (occupied over scheduled TDM
/// slots), each label starting with `prefix`.
fn chip_tracks(
    plans: &[ColumnPlan],
    report: &ExecutionReport,
    prefix: &str,
) -> Vec<TrackUtilization> {
    let mut tracks: Vec<TrackUtilization> = report
        .column_stats
        .iter()
        .enumerate()
        .map(|(i, stats)| {
            let name = plans.get(i).map_or("?", |p| p.name.as_str());
            let divider = plans.get(i).map_or(1, |p| p.clock_divider);
            TrackUtilization {
                label: format!("{prefix}col{i} {name} (\u{f7}{divider})"),
                busy: stats.cycles - stats.branch_stalls - stats.rate_match_stalls,
                total: stats.cycles,
                unit: "cycles",
                detail: format!(
                    "{} firings, {} stall cycles",
                    report.firing_counts.get(i).copied().unwrap_or(0),
                    stats.branch_stalls + stats.rate_match_stalls,
                ),
            }
        })
        .collect();
    tracks.push(TrackUtilization {
        label: format!("{prefix}horizontal bus"),
        busy: report.occupied_bus_slots,
        total: report.scheduled_bus_slots,
        unit: "slots",
        detail: format!("{} words", report.simulated_horizontal_words),
    });
    tracks
}

/// A compiled, runnable chip: the one-chip view of a [`CompiledBoard`].
/// [`compile`] builds a board of one, and every method here reads or
/// drives that board, so a chip and a board run through one execution
/// driver.
#[derive(Debug)]
pub struct CompiledChip {
    board: CompiledBoard,
}

/// The pieces one column was built from, kept so the fast tier can
/// profile a throw-away replica without disturbing the live chip.
#[derive(Debug, Clone)]
struct ColumnBlueprint {
    config: ColumnConfig,
    program: Program,
    dou: Option<DouProgram>,
}

/// Lifetime counters of one chip at one instant; a run reports the
/// difference of two of these.
struct StatsSnapshot {
    ticks: u64,
    words: u64,
    firings: Vec<u64>,
    columns: Vec<ColumnStats>,
    column_bus: Vec<BusStats>,
    bus: BusStats,
}

/// The per-chip pieces of a compiled board, in board-chip order.
#[derive(Debug, Default)]
struct BoardChipParts {
    plans: Vec<ColumnPlan>,
    blueprints: Vec<ColumnBlueprint>,
    cross_edges: Vec<CrossEdge>,
}

/// A compiled, runnable board of chips plus everything needed to
/// interpret it: one simulated [`Chip`] with its plans, blueprints and
/// TDM schedule per board chip, and the bridge schedule the [`Board`]
/// driver replays between them.
#[derive(Debug)]
pub struct CompiledBoard {
    board: Board,
    parts: Vec<BoardChipParts>,
    route: BoardRoute,
    bridge_words_per_iteration: u64,
    bridge_energy_pj_per_word: f64,
    hyperperiod: u64,
    iterations: u64,
    iteration_rate_hz: f64,
    drain_budget: u64,
    tier: ExecutionTier,
}

/// Lifetime counters of a board at one instant; [`CompiledBoard::execute`]
/// reports the difference of two of these.
struct BoardSnapshot {
    reference: u64,
    chips: Vec<StatsSnapshot>,
    bridge: BusStats,
    lane_words: Vec<u64>,
}

/// Measurements from one end-to-end execution of a compiled board: the
/// per-chip [`ExecutionReport`]s (each in that chip's column order) plus
/// the board-level bridge accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardExecutionReport {
    /// Per-chip reports, in board-chip order.
    pub chips: Vec<ExecutionReport>,
    /// Board reference ticks consumed (the frontier's advance).
    pub reference_ticks: u64,
    /// Reference ticks one graph iteration occupies (the global
    /// hyperperiod, shared by every chip).
    pub hyperperiod: u64,
    /// Words carried over the chip-to-chip bridge lanes.
    pub bridge_words: u64,
    /// Bridge words the analytic model predicts
    /// (`Σ bridge-edge words per iteration × iterations`).
    pub predicted_bridge_words: u64,
    /// Bridge cycles the schedule reserved over this run (occupied +
    /// idle) — the slot-activity numerator for bridge power.
    pub scheduled_bridge_slots: u64,
    /// Reserved bridge cycles that carried words — the other numerator.
    pub occupied_bridge_slots: u64,
    /// Words per bridge lane, indexed like the board spec's lanes.
    pub lane_words: Vec<u64>,
}

impl BoardExecutionReport {
    /// Did every column of every chip fire exactly as the repetition
    /// vector predicts?
    pub fn firings_exact(&self) -> bool {
        self.chips.iter().all(ExecutionReport::firings_exact)
    }

    /// Relative error of the simulated bridge traffic against the
    /// analytic prediction (0.0 when both are zero).
    pub fn bridge_traffic_error(&self) -> f64 {
        relative_error(self.bridge_words as f64, self.predicted_bridge_words as f64)
    }
}

/// The structured outcome of a fault-injected chip run: the per-run
/// measurements plus whether the run was abandoned on a [`SimFault`]
/// (`None` means the chip drained to halt — every scheduled fault either
/// fired without starving it or never fired because the chip halted
/// first).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// Measurements up to completion or the stall point (bus programs are
    /// only played out on completion — a stalled chip's schedule has no
    /// meaningful tail).
    pub report: ExecutionReport,
    /// The structured fault outcome, if the run could not complete.
    pub fault: Option<SimFault>,
}

/// The structured outcome of a fault-injected board run — the board-wide
/// analogue of [`FaultedRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedBoardRun {
    /// Measurements up to completion or the stall point.
    pub report: BoardExecutionReport,
    /// The structured fault outcome, if the run could not complete.
    pub fault: Option<SimFault>,
}

/// Monotone work counters of one chip, deliberately excluding the
/// reference clock (which advances even on a fully starved chip): the
/// starvation watchdog declares a stall when one full hyperperiod window
/// passes with the board's signature unchanged while columns are still
/// live.  Any live, non-failed column fires at least once per window (its
/// divider is at most the hyperperiod) and bills cycles when it does —
/// ZORM stall slots included — so a live machine can never trip it; a
/// still-playing bus program advances its scheduled-slot counters and
/// also counts as progress.
type ChipProgress = (Vec<ColumnStats>, Vec<BusStats>, Option<BusStats>, usize);

/// Per-chip signatures plus the bridge counters — the board-wide
/// watchdog signature.
type BoardProgress = (Vec<ChipProgress>, BusStats, Vec<u64>);

/// Build the closed-form batch tier for one chip's compiled columns.
fn build_fast_tier(
    plans: &[ColumnPlan],
    blueprints: &[ColumnBlueprint],
    iterations: u64,
) -> Result<FastTier, MapperError> {
    let mut tier = FastTier::new();
    for (plan, blueprint) in plans.iter().zip(blueprints) {
        let firings =
            plan.firings_per_iteration
                .checked_mul(iterations)
                .ok_or(MapperError::Overflow {
                    what: "total firing count",
                })?;
        let profile = FiringProfile::measure(
            &blueprint.config,
            &blueprint.program,
            blueprint.dou.as_ref(),
            plan.sim_cycles_per_firing,
            firings,
        )?;
        tier.push(ColumnBatch {
            column: plan.column,
            firings,
            profile,
        });
    }
    Ok(tier)
}

fn board_progress(board: &Board) -> BoardProgress {
    let chips = (0..board.chips())
        .map(|c| {
            let chip = board.chip(c).expect("index in range");
            let halted = (0..chip.columns())
                .filter(|&i| chip.column(i).is_some_and(Column::is_halted))
                .count();
            (
                chip.column_stats(),
                chip.column_bus_stats(),
                chip.horizontal_stats(),
                halted,
            )
        })
        .collect();
    (chips, board.bridge_stats(), board.lane_words().to_vec())
}

fn measured_firings_of(chip: &Chip, plans: &[ColumnPlan]) -> Vec<u64> {
    plans
        .iter()
        .map(|p| {
            let broadcasts = chip.column(p.column).map_or(0, |c| c.stats().broadcasts);
            broadcasts / p.sim_cycles_per_firing
        })
        .collect()
}

fn checked_lcm(a: u64, b: u64) -> Option<u64> {
    (a / gcd(a, b)).checked_mul(b)
}

fn relative_error(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - predicted).abs() / predicted
    }
}

/// Compile an [`SdfGraph`] and a [`Mapping`] into a runnable chip.
///
/// Every actor must be placed exactly once; each placement becomes one
/// simulated column (clamped to the physical 4-tile width, with the
/// spanned-column count recorded in its [`ColumnPlan`]).
///
/// This is a thin wrapper over [`compile_board`]: the mapping compiles as
/// a board of one chip and [`CompiledChip`] is a view of it, so the chip
/// and the board share one compiler and one execution driver (the
/// equivalence is pinned bit for bit by the board property tests).
///
/// # Errors
///
/// Returns a [`MapperError`] for inconsistent/deadlocking graphs,
/// ill-formed mappings ([`Mapping::validate`] violations, incomplete or
/// duplicated placements, placements on chips other than 0), or
/// overflowing derived quantities.
pub fn compile(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
) -> Result<CompiledChip, MapperError> {
    if mapping.chips() > 1 {
        return Err(MapperError::InvalidMapping {
            violations: mapping.validate_on_board(graph, 1),
        });
    }
    compile_board(graph, mapping, options, &BoardConfig::default())
        .map(|board| CompiledChip { board })
}

/// Compile a chip-qualified [`SdfGraph`] + [`Mapping`] into a runnable
/// board of chips: one simulated [`Chip`] with its own columns, bus
/// program and TDM schedule per board chip, plus a bridge schedule for
/// the inter-chip traffic (packed onto the [`BoardConfig`]'s lanes and
/// replayed by the [`Board`] driver in shared reference time).
///
/// The board spans `mapping.chips()` chips — every placement's `chip`
/// index selects its host.  All columns share one global hyperperiod (the
/// chips run off one reference clock, the paper's rationally-related
/// clocking extended board-wide), and the per-chip compilation is
/// identical to [`compile`]'s: a mapping placed entirely on chip 0
/// produces the same chip bit for bit.
///
/// # Errors
///
/// As for [`compile`], plus [`MapperError::Route`] with
/// [`RouteError::BridgeOversubscribed`] when one directed chip pair's
/// traffic exceeds its bridge capacity.
pub fn compile_board(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
    board: &BoardConfig,
) -> Result<CompiledBoard, MapperError> {
    let trace = &options.trace;
    let _compile_span = trace.span("mapper.compile_board");
    let chips_n = mapping.chips();
    // Reject zero-tile, over-parallel and unknown-actor placements loudly
    // instead of letting the analytic accessors silently reshape them.
    // (The board dimension cannot be violated: the board is sized from the
    // mapping itself.)
    let violations = mapping.validate(graph);
    if !violations.is_empty() {
        return Err(MapperError::InvalidMapping { violations });
    }
    // A well-formed mapping may still land on dead silicon: reject
    // placements on failed columns/tiles with the structured fault class
    // (retryable by remapping) rather than folding them into the
    // shape-violation class above.
    let fault_violations = mapping.validate_with_faults(graph, &options.faults);
    if !fault_violations.is_empty() {
        return Err(MapperError::Fault {
            violations: fault_violations,
        });
    }
    let reps = graph.repetition_vector()?;
    // The schedule doubles as the deadlock check; the buffer bounds and
    // per-iteration token counts feed the cross-edge traffic model.
    graph.schedule()?;
    let bounds = graph.buffer_bounds()?;

    // Every actor placed exactly once.
    let mut column_of_actor: Vec<Option<usize>> = vec![None; graph.actors().len()];
    for (i, p) in mapping.placements().iter().enumerate() {
        if p.actor.0 >= graph.actors().len() {
            return Err(MapperError::Sdf(SdfError::UnknownActor { id: p.actor }));
        }
        if column_of_actor[p.actor.0].replace(i).is_some() {
            return Err(MapperError::DuplicatePlacement { actor: p.actor });
        }
    }
    if let Some(unplaced) = column_of_actor.iter().position(Option::is_none) {
        return Err(MapperError::UnplacedActor {
            actor: ActorId(unplaced),
        });
    }

    let requirements = mapping.requirements(graph, options.iteration_rate_hz)?;
    let curve = VfCurve::fo4_20(&options.tech);

    // Scale per-firing compute costs so the largest fits the DOU pattern
    // budget while relative costs (and thus relative column rates) are
    // preserved.
    let cap = options.compute_cycle_cap.clamp(1, MAX_COMPUTE_SLOTS);
    let max_cost = mapping
        .placements()
        .iter()
        .map(|p| graph.actor(p.actor).map_or(1, |a| a.cycles_per_firing))
        .max()
        .unwrap_or(1)
        .max(1);
    let compute_slots = |cycles: u64| -> u64 {
        if max_cost <= cap {
            cycles.max(1)
        } else {
            // Round to nearest, in u128 to avoid overflow.
            let scaled = (u128::from(cycles) * u128::from(cap) + u128::from(max_cost) / 2)
                / u128::from(max_cost);
            (scaled as u64).clamp(1, cap)
        }
    };

    // Per-column work (column cycles per graph iteration) and the
    // hyperperiod: the smallest reference window in which every column can
    // execute exactly its work.
    let mut work = Vec::with_capacity(mapping.placements().len());
    for p in mapping.placements() {
        let actor = graph.actor(p.actor).expect("validated above");
        let slots = compute_slots(actor.cycles_per_firing) + FIRING_OVERHEAD_SLOTS;
        let w = reps[p.actor.0]
            .checked_mul(slots)
            .ok_or(MapperError::Overflow {
                what: "column work per iteration",
            })?;
        work.push((slots, w));
    }
    let hyperperiod = work.iter().try_fold(1u64, |acc, &(_, w)| {
        checked_lcm(acc, w).ok_or(MapperError::Overflow {
            what: "hyperperiod",
        })
    })?;

    let mut sim_board = Board::new();
    let mut parts: Vec<BoardChipParts> = Vec::with_capacity(chips_n);
    for _ in 0..chips_n {
        sim_board.add_chip(Chip::new());
        parts.push(BoardChipParts::default());
    }
    // Stamp every chip (and, transitively, every column added below) with
    // the trace handle and its board-chip identity.
    sim_board.set_trace(trace.clone());
    let mut columns_on_chip = vec![0usize; chips_n];
    let mut drain_budget: u64 = hyperperiod; // one extra window for halt observation
    for (i, (p, &(slots, w))) in mapping.placements().iter().zip(&work).enumerate() {
        let column = columns_on_chip[p.chip];
        columns_on_chip[p.chip] += 1;
        let actor = graph.actor(p.actor).expect("validated above");
        let rep = reps[p.actor.0];
        let total_firings = options
            .iterations
            .checked_mul(rep)
            .and_then(|t| u32::try_from(t).ok())
            .ok_or(MapperError::Overflow {
                what: "total firing count",
            })?;

        // Exact divider, or the nearest representable one plus ZORM.
        let ideal = hyperperiod / w;
        let (divider, rate_matcher) = match u32::try_from(ideal) {
            Ok(d) if d <= options.max_divider => (d, None),
            _ => {
                let d = options.max_divider;
                // Throttle the surplus: the column gets 1/d of the
                // reference rate but only needs w/hyperperiod of it.
                let matcher =
                    RateMatcher::for_rates(1.0 / f64::from(d), w as f64 / hyperperiod as f64);
                (d, matcher)
            }
        };

        let required_frequency_mhz = requirements[i].frequency_mhz;
        let (voltage, _within) = curve.voltage_for_frequency_extrapolated(required_frequency_mhz);

        // The per-firing SIMD program: tag the token, expose it to the
        // bus, model the compute, consume the staged input.
        let compute = slots - FIRING_OVERHEAD_SLOTS;
        let mut builder = ProgramBuilder::new();
        builder.counted_loop(total_firings, |b| {
            b.load_imm(DataReg::new(7), p.actor.0 as i32 + 1);
            b.send();
            b.counted_loop(compute as u32, |b| {
                b.nop();
            });
            b.recv(DataReg::new(2));
        });
        builder.halt();
        let program = builder.build().expect("mapper programs use no labels");

        // The DOU distributes each produced token across the column's
        // tiles one cycle after the send fills the write buffer.  ZORM
        // stalls would desynchronise the pattern, so throttled columns
        // skip intra-column distribution.
        let sim_tiles = p.tiles.clamp(1, 4) as usize;
        let dou: Option<DouProgram> = if sim_tiles > 1 && rate_matcher.is_none() {
            let mut schedule = ScheduleCompiler::new();
            schedule.idle_for(2).push_op(BusOp {
                split: 0,
                producer: 0,
                consumers: (1..sim_tiles).collect(),
            });
            schedule.idle_for(slots as usize - 3);
            Some(schedule.compile(total_firings)?)
        } else {
            None
        };

        let config = ColumnConfig {
            tiles: sim_tiles,
            clock_divider: divider,
            voltage,
            enabled_tiles: vec![true; sim_tiles],
            rate_matcher,
        };
        sim_board
            .chip_mut(p.chip)
            .expect("board sized from the mapping")
            .add_column(Column::new(config.clone(), program.clone(), dou.clone()));
        parts[p.chip].blueprints.push(ColumnBlueprint {
            config,
            program,
            dou,
        });

        // Reference ticks this column needs to finish, ZORM stalls
        // included.
        let slots_needed = match rate_matcher {
            Some(m) => {
                let period = u64::from(m.period);
                (u64::from(total_firings) * slots)
                    .checked_mul(period)
                    .map_or(u64::MAX, |s| s.div_ceil(period - u64::from(m.stalls)))
            }
            None => u64::from(total_firings) * slots,
        };
        drain_budget = drain_budget.max(
            slots_needed
                .saturating_mul(u64::from(divider))
                .saturating_add(hyperperiod),
        );

        parts[p.chip].plans.push(ColumnPlan {
            actor: p.actor,
            name: actor.name.clone(),
            chip: p.chip,
            column,
            tiles: p.tiles,
            sim_tiles,
            columns_spanned: p.tiles.div_ceil(4),
            firings_per_iteration: rep,
            sim_cycles_per_firing: slots,
            clock_divider: divider,
            rate_matcher,
            required_frequency_mhz,
            voltage,
        });
    }

    // The router owns the flow-derivation invariant (placements number
    // the columns within their chip, cross words per iteration from the
    // repetition vector); the mapper only decorates each flow with its
    // buffer bound and per-firing rate for the cross-edge bookkeeping.
    let (intra_flows, bridge_flows) = board_flows(graph, mapping)?;
    for (chip_parts, flows) in parts.iter_mut().zip(&intra_flows) {
        chip_parts.cross_edges = flows
            .iter()
            .map(|f| CrossEdge {
                from_column: f.from,
                to_column: f.to,
                produce: graph.edges()[f.edge].produce,
                words_per_iteration: f.words,
                buffer_bound: bounds[f.edge],
            })
            .collect();
    }
    let bridge_words_per_iteration: u64 = bridge_flows.iter().map(|f| f.words).sum();

    // Compile the static TDM communication schedules: every cross-column
    // word gets a (split, cycle) slot in its chip's periodic frame of
    // `bus_frequency / iteration_rate` bus cycles, conflict-free under
    // the segment-group rule, and every cross-chip word a bridge-lane
    // cycle — or the mapping is rejected as communication-infeasible.
    let mut chip_specs = Vec::with_capacity(chips_n);
    for (chip_index, &columns) in columns_on_chip.iter().enumerate() {
        // Reduced bus splits: a chip that lost splits routes on what
        // survives; a chip that lost them all cannot route at all.
        let lost = options.faults.splits_lost(chip_index);
        let splits = options.bus_splits.saturating_sub(lost as usize);
        if splits == 0 && lost > 0 {
            return Err(MapperError::Fault {
                violations: vec![MappingViolation::BusSplitsExhausted {
                    chip: chip_index,
                    splits: options.bus_splits as u32,
                    lost,
                }],
            });
        }
        chip_specs.push(match &options.bus_segments {
            Some(segments) => BusSpec::from_clock_with_segments(
                columns.max(1),
                splits,
                options.bus_frequency_hz,
                options.iteration_rate_hz,
                segments.clone(),
            )?,
            None => BusSpec::from_clock(
                columns.max(1),
                splits,
                options.bus_frequency_hz,
                options.iteration_rate_hz,
            )?,
        });
    }
    let bridge_period =
        BusSpec::clock_period(board.bridge_frequency_hz, options.iteration_rate_hz)?;
    let mut board_spec = BoardSpec::full(
        chip_specs,
        board.bridge_width_words,
        board.bridge_latency_cycles,
        board.bridge_energy_pj_per_word,
        bridge_period,
    )?;
    if !options.faults.is_empty() {
        // Drop failed lanes and clamp degraded ones, then make sure every
        // direction cross-chip traffic needs still has a surviving lane —
        // a severed direction is a fault rejection, not a router error.
        board_spec = board_spec.apply_faults(&options.faults);
        let mut down: Vec<MappingViolation> = Vec::new();
        for flow in &bridge_flows {
            if flow.words == 0 {
                continue;
            }
            let served = board_spec
                .lanes()
                .iter()
                .any(|l| l.from == flow.from_chip && l.to == flow.to_chip);
            let violation = MappingViolation::BridgeDown {
                from_chip: flow.from_chip,
                to_chip: flow.to_chip,
            };
            if !served && !down.contains(&violation) {
                down.push(violation);
            }
        }
        if !down.is_empty() {
            return Err(MapperError::Fault { violations: down });
        }
    }
    let route = synchro_route::compile_board_traced(graph, mapping, &board_spec, trace)?;

    // Drive each simulated chip's horizontal bus from its schedule: one
    // chip-level bus program whose period is the global hyperperiod, with
    // each TDM slot's bus cycle scaled onto the reference clock.
    for (chip_index, schedule) in route.chips().iter().enumerate() {
        if schedule.slots().is_empty() {
            continue;
        }
        let period = schedule.spec().period().max(1);
        let mut slots: Vec<BusSlot> = schedule
            .slots()
            .iter()
            .map(|slot| BusSlot {
                tick: ((u128::from(slot.cycle) * u128::from(hyperperiod)) / u128::from(period))
                    as u64,
                from: slot.from,
                to: vec![slot.to],
                words: slot.words,
            })
            .collect();
        slots.sort_by_key(|s| s.tick);
        let program = BusProgram::new(
            hyperperiod,
            options.iterations,
            schedule.scheduled_slots(),
            slots,
        );
        sim_board
            .chip_mut(chip_index)
            .expect("board sized from the mapping")
            .load_bus_program(program)
            .map_err(|e| MapperError::Column(ColumnError::Bus(e)))?;
    }

    // And the board's bridge from the bridge schedule, scaled the same
    // way onto the shared reference clock.
    if !route.bridge().slots().is_empty() {
        let period = route.bridge().period().max(1);
        let mut slots: Vec<BridgeTransfer> = route
            .bridge()
            .slots()
            .iter()
            .map(|slot| {
                let lane = route.spec().lanes()[slot.lane];
                BridgeTransfer {
                    tick: ((u128::from(slot.cycle) * u128::from(hyperperiod)) / u128::from(period))
                        as u64,
                    lane: slot.lane,
                    from_chip: lane.from,
                    to_chip: lane.to,
                    words: slot.words,
                    cycles: slot.cycles,
                }
            })
            .collect();
        slots.sort_by_key(|s| s.tick);
        let program = BridgeProgram::new(
            hyperperiod,
            options.iterations,
            route.bridge().scheduled_slots(),
            slots,
        );
        sim_board
            .load_bridge_program(program)
            .map_err(|e| MapperError::Column(ColumnError::Bus(e)))?;
    }

    Ok(CompiledBoard {
        board: sim_board,
        parts,
        route,
        bridge_words_per_iteration,
        bridge_energy_pj_per_word: board.bridge_energy_pj_per_word,
        hyperperiod,
        iterations: options.iterations,
        iteration_rate_hz: options.iteration_rate_hz,
        drain_budget,
        tier: options.tier,
    })
}

impl CompiledChip {
    /// The underlying simulated chip.
    pub fn chip(&self) -> &Chip {
        self.board.sim_chip(0)
    }

    /// Mutable access to the simulated chip (e.g. to stage tile data).
    pub fn chip_mut(&mut self) -> &mut Chip {
        self.board.sim_chip_mut(0)
    }

    /// Per-column plans in placement order.
    pub fn plans(&self) -> &[ColumnPlan] {
        self.board.chip_plans(0)
    }

    /// Edges whose endpoints live on different columns.
    pub fn cross_edges(&self) -> &[CrossEdge] {
        self.board.chip_cross_edges(0)
    }

    /// The compiled TDM communication schedule the chip's horizontal bus
    /// is driven from (empty for single-column graphs).
    pub fn route(&self) -> &RouteSchedule {
        &self.board.route.chips()[0]
    }

    /// Reference ticks per graph iteration.
    pub fn hyperperiod(&self) -> u64 {
        self.board.hyperperiod
    }

    /// Graph iterations the compiled programs execute.
    pub fn iterations(&self) -> u64 {
        self.board.iterations
    }

    /// Graph-iteration rate the chip was compiled for.
    pub fn iteration_rate_hz(&self) -> f64 {
        self.board.iteration_rate_hz
    }

    /// The pricing context [`synchro_trace::analyze::attribute`] bills a
    /// captured event stream of this chip against: per-column operating
    /// points from the compiled plans plus the shared power models under
    /// `tech`.  A single chip has no bridge lane, so no bridge energy is
    /// rated.
    pub fn price_spec(&self, tech: &Technology) -> PriceSpec {
        PriceSpec {
            bridge_energy_pj_per_word: 0.0,
            ..self.board.price_spec(tech)
        }
    }

    /// Aggregate energy of one run derived from the report counters —
    /// the independent cross-check for the event-priced ledger (see
    /// [`ReportEnergy`]).
    pub fn execution_energy(&self, report: &ExecutionReport, tech: &Technology) -> ReportEnergy {
        let duration_s = self.board.run_seconds(report.reference_ticks);
        chip_report_energy(self.plans(), report, tech, duration_s)
    }

    /// Measured firings per column so far, derived from the broadcast
    /// counters (every issue slot of a firing is a broadcast).
    pub fn measured_firings(&self) -> Vec<u64> {
        measured_firings_of(self.chip(), self.plans())
    }

    /// Per-track utilization rows of one run's [`ExecutionReport`] — the
    /// input [`synchro_trace::report::histogram`] renders: one row per
    /// column (useful cycles over executed cycles, branch and ZORM stalls
    /// excluded from busy) plus the horizontal bus (occupied over
    /// scheduled TDM slots).
    pub fn utilization(&self, report: &ExecutionReport) -> Vec<TrackUtilization> {
        chip_tracks(self.plans(), report, "")
    }

    /// Run the chip to completion: [`CompiledBoard::execute`] on the
    /// board of one.  Horizontal-bus traffic is driven cycle by cycle
    /// from the compiled TDM route schedule (loaded into the chip as a
    /// [`BusProgram`]) as the reference clock passes each slot's time —
    /// the statically scheduled communication the paper describes.
    ///
    /// Every quantity in the returned [`ExecutionReport`] covers *this
    /// call only*: counters are snapshotted on entry and reported as
    /// deltas, so traffic or cycles staged through [`CompiledChip::chip_mut`]
    /// beforehand do not pollute the cross-validation (the compiled
    /// programs themselves run once — a second `execute` reports an empty,
    /// and therefore inexact, run).
    ///
    /// # Errors
    ///
    /// As for [`CompiledBoard::execute`].
    pub fn execute(&mut self) -> Result<ExecutionReport, MapperError> {
        self.board.execute().map(only_chip)
    }

    /// Run the chip to completion under a deterministic [`FaultPlan`]:
    /// [`CompiledBoard::execute_faulted`] on the board of one.  A killed
    /// column executes nothing and bills nothing from its event tick on
    /// but never reports halted, so the run ends either at halt
    /// (`fault: None`) or in a watchdog stall.  Bridge-lane events are
    /// no-ops: a single chip has no lanes.
    ///
    /// # Errors
    ///
    /// As for [`CompiledBoard::execute_faulted`].
    pub fn execute_faulted(&mut self, plan: &FaultPlan) -> Result<FaultedRun, MapperError> {
        self.board.execute_faulted(plan).map(chip_run)
    }

    /// [`CompiledChip::execute_faulted`] on the naive tick-by-tick
    /// driver — the differential-testing reference (see
    /// [`CompiledBoard::execute_faulted_ticked`]).
    ///
    /// # Errors
    ///
    /// As for [`CompiledChip::execute_faulted`].
    pub fn execute_faulted_ticked(&mut self, plan: &FaultPlan) -> Result<FaultedRun, MapperError> {
        self.board.execute_faulted_ticked(plan).map(chip_run)
    }
}

/// The report of chip 0 — the only chip of a [`CompiledChip`]'s board.
fn only_chip(report: BoardExecutionReport) -> ExecutionReport {
    report
        .chips
        .into_iter()
        .next()
        .expect("a board of one reports one chip")
}

fn chip_run(run: FaultedBoardRun) -> FaultedRun {
    FaultedRun {
        report: only_chip(run.report),
        fault: run.fault,
    }
}

impl CompiledBoard {
    /// The underlying simulated board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Mutable access to the simulated board (e.g. to stage tile data on
    /// one of its chips).
    pub fn board_mut(&mut self) -> &mut Board {
        &mut self.board
    }

    /// Number of chips on the board.
    pub fn chips(&self) -> usize {
        self.parts.len()
    }

    /// Per-column plans of one chip, in that chip's column order.
    pub fn chip_plans(&self, chip: usize) -> &[ColumnPlan] {
        &self.parts[chip].plans
    }

    /// Edges whose endpoints live on different columns of the same chip.
    pub fn chip_cross_edges(&self, chip: usize) -> &[CrossEdge] {
        &self.parts[chip].cross_edges
    }

    /// The compiled board route: one TDM schedule per chip plus the
    /// bridge schedule.
    pub fn route(&self) -> &BoardRoute {
        &self.route
    }

    /// Reference ticks per graph iteration (global — every chip shares
    /// the board reference clock).
    pub fn hyperperiod(&self) -> u64 {
        self.hyperperiod
    }

    /// Graph iterations the compiled programs execute.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Words crossing chip boundaries per graph iteration.
    pub fn bridge_words_per_iteration(&self) -> u64 {
        self.bridge_words_per_iteration
    }

    /// The per-word bridge energy rating the board was compiled with, in
    /// pJ — the input to `InterconnectModel::power_mw_bridge_slots`.
    pub fn bridge_energy_pj_per_word(&self) -> f64 {
        self.bridge_energy_pj_per_word
    }

    /// Graph-iteration rate the board was compiled for.
    pub fn iteration_rate_hz(&self) -> f64 {
        self.iteration_rate_hz
    }

    /// The pricing context [`synchro_trace::analyze::attribute`] bills a
    /// captured event stream of this board against: every chip's column
    /// operating points and bus, plus the bridge-lane word rating.
    pub fn price_spec(&self, tech: &Technology) -> PriceSpec {
        let columns = self
            .parts
            .iter()
            .flat_map(|part| &part.plans)
            .map(|p| ColumnPricing {
                chip: p.chip as u32,
                column: p.column as u32,
                label: p.name.clone(),
                tiles: p.tiles,
                voltage: p.voltage,
                clock_divider: p.clock_divider,
            })
            .collect();
        let buses = self
            .parts
            .iter()
            .enumerate()
            .map(|(chip, part)| BusPricing {
                chip: chip as u32,
                geometry: BusGeometry::horizontal(tech),
                voltage: bus_voltage(&part.plans),
                scheduled_slots_per_iteration: self.route.chips()[chip].scheduled_slots(),
            })
            .collect();
        PriceSpec {
            iteration_rate_hz: self.iteration_rate_hz,
            hyperperiod: self.hyperperiod,
            tile_power: TilePowerModel::new(tech),
            leakage: LeakageModel::new(tech),
            interconnect: InterconnectModel::new(tech),
            columns,
            buses,
            bridge_energy_pj_per_word: self.bridge_energy_pj_per_word,
            bridge_scheduled_slots_per_iteration: self.route.bridge().scheduled_slots(),
        }
    }

    /// Aggregate energy of one run derived from the report counters —
    /// the independent cross-check for the event-priced ledger (see
    /// [`ReportEnergy`]).
    pub fn execution_energy(
        &self,
        report: &BoardExecutionReport,
        tech: &Technology,
    ) -> ReportEnergy {
        let duration_s = self.run_seconds(report.reference_ticks);
        let mut total = ReportEnergy {
            compute_j: 0.0,
            leakage_j: 0.0,
            interconnect_j: InterconnectModel::new(tech)
                .bridge_word_energy_j(self.bridge_energy_pj_per_word)
                * report.bridge_words as f64,
            duration_s,
        };
        for (part, chip_report) in self.parts.iter().zip(&report.chips) {
            let chip = chip_report_energy(&part.plans, chip_report, tech, duration_s);
            total.compute_j += chip.compute_j;
            total.leakage_j += chip.leakage_j;
            total.interconnect_j += chip.interconnect_j;
        }
        total
    }

    /// Wall-clock seconds `reference_ticks` span at the compiled rate.
    fn run_seconds(&self, reference_ticks: u64) -> f64 {
        if self.hyperperiod == 0 || self.iteration_rate_hz <= 0.0 {
            0.0
        } else {
            reference_ticks as f64 / (self.hyperperiod as f64 * self.iteration_rate_hz)
        }
    }

    /// Per-track utilization rows of one run's [`BoardExecutionReport`]
    /// — the board-level analogue of [`CompiledChip::utilization`]: per
    /// chip one row per column plus its horizontal bus, then one row per
    /// bridge lane (words carried over the lane's word capacity for the
    /// run) and the board-wide bridge frame occupancy.
    pub fn utilization(&self, report: &BoardExecutionReport) -> Vec<TrackUtilization> {
        let mut tracks = Vec::new();
        for (chip, (part, chip_report)) in self.parts.iter().zip(&report.chips).enumerate() {
            tracks.extend(chip_tracks(
                &part.plans,
                chip_report,
                &format!("chip{chip}/"),
            ));
        }
        let bridge = self.route.bridge();
        let iterations = report
            .reference_ticks
            .checked_div(self.hyperperiod)
            .unwrap_or(0);
        for (i, lane) in bridge.lanes().iter().enumerate() {
            tracks.push(TrackUtilization {
                label: format!("bridge lane {i}"),
                busy: report.lane_words.get(i).copied().unwrap_or(0),
                total: lane.width_words * bridge.period() * iterations,
                unit: "words",
                detail: format!("chip{}\u{2192}chip{}", lane.from, lane.to),
            });
        }
        tracks.push(TrackUtilization {
            label: "bridge frame".to_owned(),
            busy: report.occupied_bridge_slots,
            total: report.scheduled_bridge_slots,
            unit: "slots",
            detail: format!("{} words", report.bridge_words),
        });
        tracks
    }

    /// Run the board to completion: the chips co-advance in shared
    /// reference time (each chip's horizontal bus driven from its own TDM
    /// schedule) and the bridge schedule replays the inter-chip transfers
    /// as the board clock passes each slot.  On the fast tier the run is
    /// profiled and batched in closed form instead, with bit-identical
    /// statistics.
    ///
    /// Every quantity in the returned [`BoardExecutionReport`] covers
    /// *this call only* (counters are snapshotted on entry and reported
    /// as deltas, per-chip and board-wide alike).
    ///
    /// # Errors
    ///
    /// Propagates simulation faults, reports [`MapperError::Incomplete`]
    /// if the board fails to halt within its tick budget, and
    /// [`MapperError::SimFault`] if the starvation watchdog sees a full
    /// hyperperiod window without progress (a column killed by hand
    /// beforehand).  On error the board state is unspecified (the loop
    /// leaves it partially run, the fast tier untouched) — the returned
    /// error value itself is tier-independent.
    pub fn execute(&mut self) -> Result<BoardExecutionReport, MapperError> {
        let run = self.drive(&FaultPlan::none(), false)?;
        match run.fault {
            None => Ok(run.report),
            Some(fault) => Err(MapperError::SimFault(fault)),
        }
    }

    /// Run the board to completion under a deterministic [`FaultPlan`]:
    /// each scheduled event fires iff the board has not fully halted when
    /// its reference tick is reached (a board that drains first never
    /// sees the fault).  Column events kill a column of one chip: it
    /// executes nothing and bills nothing from its event tick on but
    /// never reports halted, so the board starves and the run ends in
    /// `fault: Some(SimFault::Stalled)` via the watchdog.  Bridge-lane
    /// events kill a lane, dropping every slot scheduled on it from the
    /// event tick on (undelivered and unaccounted); receives do not
    /// block, so such runs complete with `fault: None` and reduced bridge
    /// traffic.  Events naming a lane the board does not have are no-ops.
    ///
    /// On the fast tier, a run whose predicted halt precedes every
    /// scheduled event keeps the closed-form batch path (no event would
    /// ever fire); otherwise it falls back to the windowed loop, whose
    /// statistics are bit-identical anyway.  Every tier and driver shares
    /// the plain run's tick budget.
    ///
    /// # Errors
    ///
    /// As for [`CompiledBoard::execute`]; a watchdog stall is *not* an
    /// error here — it is the structured [`FaultedBoardRun::fault`]
    /// outcome.
    pub fn execute_faulted(&mut self, plan: &FaultPlan) -> Result<FaultedBoardRun, MapperError> {
        self.drive(plan, false)
    }

    /// [`CompiledBoard::execute_faulted`] on the naive tick-by-tick
    /// driver ([`Board::run_ticked`]) regardless of the compiled
    /// [`ExecutionTier`] — the differential-testing reference.  Windows
    /// are cut at exactly the same reference ticks as the event-driven
    /// loop's, so the two produce bit-identical statistics, outcomes and
    /// trace streams.
    ///
    /// # Errors
    ///
    /// As for [`CompiledBoard::execute_faulted`].
    pub fn execute_faulted_ticked(
        &mut self,
        plan: &FaultPlan,
    ) -> Result<FaultedBoardRun, MapperError> {
        self.drive(plan, true)
    }

    /// The one execution driver behind every `execute*` method of both
    /// compiled types: the fast tier's closed form where it applies,
    /// otherwise the windowed loop (event-driven, or tick by tick when
    /// `ticked`), then the tail of every bus and bridge schedule unless
    /// the run stalled (a stalled board's schedule has no meaningful
    /// tail).
    fn drive(&mut self, plan: &FaultPlan, ticked: bool) -> Result<FaultedBoardRun, MapperError> {
        // Publish the fleet's frontier first, so a chip stepped by hand
        // is windowed from where it stands (a no-op on a fresh board).
        self.board.run(0)?;
        let start = self.snapshot();
        let fast = self.tier == ExecutionTier::Fast && !ticked;
        let fault = if fast && self.run_fast(plan.first_tick())? {
            None
        } else {
            let fault = self.run_windows(plan, ticked)?;
            if fault.is_none() {
                for chip in 0..self.parts.len() {
                    self.sim_chip_mut(chip).finish_bus_program()?;
                }
                self.board.finish_bridge_program();
            }
            fault
        };
        Ok(FaultedBoardRun {
            report: self.report_since(&start),
            fault,
        })
    }

    /// Reference ticks a run may take before it is
    /// [`MapperError::Incomplete`]: the iteration windows, or the drain
    /// budget rounded up to whole windows when that is longer.
    fn budget_ticks(&self) -> u64 {
        let window = self.hyperperiod.max(1);
        self.iterations
            .max(self.drain_budget.div_ceil(window))
            .saturating_mul(window)
    }

    /// The fast tier: profile one firing per column of every chip, check
    /// the run would end within [`CompiledBoard::budget_ticks`], then
    /// apply every remaining firing as a closed-form counter update and
    /// drain the bus and bridge programs in bulk.  Statistics are
    /// bit-identical to the windowed loop; the budget check reproduces
    /// [`MapperError::Incomplete`] *without* mutating any chip.
    ///
    /// Returns `false`, touching nothing, when there is no closed form: a
    /// failed column executes nothing, forever, and a fault event at or
    /// before the predicted halt has no mid-run point to inject at.  (At
    /// equality the event fires first — the halt-observing tick has not
    /// executed yet — so only a strictly earlier halt keeps this path.)
    fn run_fast(&mut self, first_event: Option<u64>) -> Result<bool, MapperError> {
        let chips = self.parts.len();
        if (0..chips).any(|chip| self.sim_chip(chip).any_failed()) {
            return Ok(false);
        }
        if self.board.all_halted() {
            // The loop would observe the halt at once and still play the
            // schedules out.
            for chip in 0..chips {
                self.sim_chip_mut(chip).finish_bus_program_batched()?;
            }
        } else {
            let tiers = self
                .parts
                .iter()
                .map(|part| build_fast_tier(&part.plans, &part.blueprints, self.iterations))
                .collect::<Result<Vec<_>, _>>()?;
            let mut halt = None;
            for (chip, tier) in tiers.iter().enumerate() {
                halt = halt.max(tier.completion_tick(self.sim_chip(chip))?);
            }
            if first_event.is_some_and(|first| halt.is_none_or(|t| t >= first)) {
                return Ok(false);
            }
            let budget = self.budget_ticks();
            if halt.is_some_and(|t| t >= budget) {
                return Err(MapperError::Incomplete { ticks: budget });
            }
            for (chip, tier) in tiers.iter().enumerate() {
                tier.run(self.sim_chip_mut(chip))?;
            }
            // Publish the fleet's frontier as the board reference clock
            // (a zero-tick run: every chip is already at or past it).
            self.board.run(0)?;
        }
        self.board.finish_bridge_program_batched();
        Ok(true)
    }

    /// The windowed loop: advance the fleet one hyperperiod window at a
    /// time, cutting a window short at the next unfired fault event so
    /// each event fires at its exact reference tick, with the starvation
    /// watchdog armed on every full window.  Once the
    /// [budget](CompiledBoard::budget_ticks) is spent, one diagnostic
    /// window separates a wedged board (zero progress — a structured
    /// stall) from a merely slow one ([`MapperError::Incomplete`]).
    /// Returns the stall, if any; `None` means every chip halted.
    fn run_windows(
        &mut self,
        plan: &FaultPlan,
        ticked: bool,
    ) -> Result<Option<SimFault>, MapperError> {
        let advance = if ticked {
            Board::run_ticked
        } else {
            Board::run
        };
        let origin = self.board.reference_cycles();
        let window = self.hyperperiod.max(1);
        let budget = self.budget_ticks();
        let lanes = self.route.spec().lanes().len();
        let events = plan.events();
        let mut next = 0usize;
        loop {
            if self.board.all_halted() {
                return Ok(None);
            }
            let now = self.board.reference_cycles() - origin;
            while let Some(event) = events.get(next).filter(|e| e.at_tick <= now) {
                let at = origin + event.at_tick;
                match event.target {
                    FaultTarget::Column { chip, column } => {
                        self.board.fail_column(chip, column, at);
                    }
                    FaultTarget::BridgeLane { lane } if lane < lanes => {
                        self.board.fail_lane(lane, at);
                    }
                    FaultTarget::BridgeLane { .. } => {}
                }
                next += 1;
            }
            let over_budget = now >= budget;
            let mut target = now.saturating_add(window);
            if let Some(event) = events.get(next).filter(|_| !over_budget) {
                target = target.min(event.at_tick);
            }
            let before = board_progress(&self.board);
            advance(&mut self.board, target - now)?;
            if target - now == window
                && !self.board.all_halted()
                && board_progress(&self.board) == before
            {
                let tick = self.board.reference_cycles();
                self.board
                    .trace()
                    .emit(|| TraceEvent::FaultStalled { tick, window });
                return Ok(Some(SimFault::Stalled {
                    reference_cycles: tick - origin,
                    window,
                }));
            }
            if over_budget {
                return Err(MapperError::Incomplete { ticks: now });
            }
        }
    }

    fn sim_chip(&self, chip: usize) -> &Chip {
        self.board.chip(chip).expect("board sized from the mapping")
    }

    fn sim_chip_mut(&mut self, chip: usize) -> &mut Chip {
        self.board
            .chip_mut(chip)
            .expect("board sized from the mapping")
    }

    fn snapshot(&self) -> BoardSnapshot {
        BoardSnapshot {
            reference: self.board.reference_cycles(),
            chips: self
                .parts
                .iter()
                .enumerate()
                .map(|(c, part)| {
                    let chip = self.sim_chip(c);
                    StatsSnapshot {
                        ticks: chip.stats().reference_cycles,
                        words: chip.stats().horizontal_transfers,
                        firings: measured_firings_of(chip, &part.plans),
                        columns: chip.column_stats(),
                        column_bus: chip.column_bus_stats(),
                        bus: chip.horizontal_stats().unwrap_or_default(),
                    }
                })
                .collect(),
            bridge: self.board.bridge_stats(),
            lane_words: self.board.lane_words().to_vec(),
        }
    }

    fn report_since(&self, start: &BoardSnapshot) -> BoardExecutionReport {
        let chips = self
            .parts
            .iter()
            .enumerate()
            .map(|(c, part)| self.chip_report(c, part, &start.chips[c]))
            .collect();
        let bridge = self.board.bridge_stats();
        BoardExecutionReport {
            chips,
            reference_ticks: self.board.reference_cycles() - start.reference,
            hyperperiod: self.hyperperiod,
            bridge_words: bridge.word_transfers - start.bridge.word_transfers,
            predicted_bridge_words: self.bridge_words_per_iteration * self.iterations,
            scheduled_bridge_slots: bridge.scheduled_slots - start.bridge.scheduled_slots,
            occupied_bridge_slots: bridge.occupied_slots - start.bridge.occupied_slots,
            lane_words: self
                .board
                .lane_words()
                .iter()
                .enumerate()
                .map(|(i, now)| now - start.lane_words.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// Chip `c`'s share of a run: the deltas of its counters since
    /// `start`.
    fn chip_report(
        &self,
        c: usize,
        part: &BoardChipParts,
        start: &StatsSnapshot,
    ) -> ExecutionReport {
        let chip = self.sim_chip(c);
        let iterations = self.iterations;
        let firings = measured_firings_of(chip, &part.plans);
        let firing_counts: Vec<u64> = firings
            .iter()
            .zip(&start.firings)
            .map(|(now, before)| now - before)
            .collect();
        let expected: Vec<u64> = part
            .plans
            .iter()
            .map(|p| p.firings_per_iteration * iterations)
            .collect();
        let predicted_words = part
            .cross_edges
            .iter()
            .map(|e| e.words_per_iteration * iterations)
            .sum();
        let column_stats: Vec<ColumnStats> = chip
            .column_stats()
            .iter()
            .zip(&start.columns)
            .map(|(now, before)| now.delta(before))
            .collect();
        let column_bus: Vec<BusStats> = chip
            .column_bus_stats()
            .iter()
            .zip(&start.column_bus)
            .map(|(now, before)| now.delta(before))
            .collect();
        let bus = chip.horizontal_stats().unwrap_or_default();
        // Firing totals are derived from the broadcast counters at report
        // time on both tiers (the interpreter has no per-firing hook), so
        // interpreted and fast runs emit the identical batched event.
        let trace = chip.trace();
        if trace.enabled() {
            let chip_id = chip.chip_id();
            let tick = chip.stats().reference_cycles;
            for (column, &count) in firing_counts.iter().enumerate() {
                if count > 0 {
                    trace.emit(|| TraceEvent::ColumnFiring {
                        chip: chip_id,
                        column: column as u32,
                        tick,
                        count,
                    });
                }
            }
        }
        ExecutionReport {
            iterations,
            reference_ticks: chip.stats().reference_cycles - start.ticks,
            hyperperiod: self.hyperperiod,
            firing_counts,
            expected_firings: expected,
            simulated_horizontal_words: chip.stats().horizontal_transfers - start.words,
            predicted_horizontal_words: predicted_words,
            column_cycles: column_stats.iter().map(|s| s.cycles).collect(),
            intra_column_words: column_stats.iter().map(|s| s.bus_word_transfers).collect(),
            scheduled_bus_slots: bus.scheduled_slots - start.bus.scheduled_slots,
            occupied_bus_slots: bus.occupied_slots - start.bus.occupied_slots,
            column_stats,
            column_bus,
        }
    }
}

/// Compare a simulated execution against the analytic
/// [`ApplicationReport`] for the same application.
///
/// Blocks are matched by position: the mapping's placements must be in the
/// same order as the report's blocks (both follow the application's
/// pipeline order).  A count mismatch is reported via
/// [`CrossValidation::blocks_match`] and fails
/// [`CrossValidation::agrees_within`] — never silently truncated.
pub fn cross_validate(
    compiled: &CompiledChip,
    execution: &ExecutionReport,
    report: &ApplicationReport,
) -> CrossValidation {
    let blocks: Vec<BlockComparison> = compiled
        .plans()
        .iter()
        .zip(&report.blocks)
        .map(|(plan, block)| BlockComparison {
            name: plan.name.clone(),
            analytic_frequency_mhz: block.frequency_mhz,
            mapped_frequency_mhz: plan.required_frequency_mhz,
            frequency_error: relative_error(plan.required_frequency_mhz, block.frequency_mhz),
        })
        .collect();
    let max_frequency_error = blocks.iter().map(|b| b.frequency_error).fold(0.0, f64::max);
    CrossValidation {
        max_frequency_error,
        blocks_match: compiled.plans().len() == report.blocks.len(),
        firings_exact: execution.firings_exact(),
        bus_traffic_error: execution.horizontal_traffic_error(),
        blocks,
    }
}

/// Compile an explorer solution: realize it back into a `(graph,
/// mapping)` pair (the original graph for single-actor columns, the
/// clustered graph for fused ones) and run it through [`compile`].
///
/// The `options.iteration_rate_hz` should match the rate the solution was
/// explored at so the voltage annotations line up.
///
/// # Errors
///
/// Propagates realization and compilation failures.
pub fn compile_explored(
    graph: &SdfGraph,
    solution: &ExplorerSolution,
    options: &MapperOptions,
) -> Result<CompiledChip, MapperError> {
    let (realized_graph, mapping) = solution.realize(graph)?;
    compile(&realized_graph, &mapping, options)
}

/// The DDC front end as an SDF graph whose mapping reproduces the paper's
/// Table 4 operating points: mixer → CIC integrator → (4:1) CIC comb →
/// CFIR → PFIR at 16 M graph iterations/s (64 MS/s, 4 samples per
/// iteration).  Returns `(graph, mapping, iteration_rate_hz)`; the graph
/// definition lives in [`synchro_apps::graphs`].
pub fn ddc_reference() -> (SdfGraph, Mapping, f64) {
    let reference = synchro_apps::reference_graph(synchro_apps::Application::Ddc);
    (
        reference.graph,
        reference.mapping,
        reference.iteration_rate_hz,
    )
}

/// The 802.11a receive chain as an SDF graph whose mapping reproduces the
/// paper's Table 4 operating points: FFT → de-mod/de-interleave → Viterbi
/// ACS → traceback at 250 k OFDM symbols/s.  Returns
/// `(graph, mapping, iteration_rate_hz)`; the graph definition lives in
/// [`synchro_apps::graphs`].
pub fn wifi_reference() -> (SdfGraph, Mapping, f64) {
    let reference = synchro_apps::reference_graph(synchro_apps::Application::Wifi80211a);
    (
        reference.graph,
        reference.mapping,
        reference.iteration_rate_hz,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_actor_chain(produce: u64, consume: u64) -> (SdfGraph, Mapping) {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 4, 4);
        let b = g.add_actor("b", 6, 4);
        g.add_edge(a, b, produce, consume, 0).unwrap();
        let mut m = Mapping::new();
        m.place(a, 4, 1.0);
        m.place(b, 2, 1.0);
        (g, m)
    }

    #[test]
    fn compile_rejects_incomplete_or_duplicate_mappings() {
        let (g, _) = two_actor_chain(1, 1);
        let mut partial = Mapping::new();
        partial.place(ActorId(0), 1, 1.0);
        assert!(matches!(
            compile(&g, &partial, &MapperOptions::default()),
            Err(MapperError::UnplacedActor { actor: ActorId(1) })
        ));

        let mut duplicated = Mapping::new();
        duplicated.place(ActorId(0), 1, 1.0);
        duplicated.place(ActorId(1), 1, 1.0);
        duplicated.place(ActorId(0), 2, 1.0);
        assert!(matches!(
            compile(&g, &duplicated, &MapperOptions::default()),
            Err(MapperError::DuplicatePlacement { actor: ActorId(0) })
        ));
    }

    #[test]
    fn dividers_balance_work_across_the_hyperperiod() {
        let (g, m) = two_actor_chain(2, 3);
        let compiled = compile(&g, &m, &MapperOptions::default()).unwrap();
        // reps = (3, 2); slots = cycles + 3 → (7, 9); work = (21, 18);
        // hyperperiod = lcm = 126; dividers = (6, 7).
        assert_eq!(compiled.hyperperiod(), 126);
        let plans = compiled.plans();
        assert_eq!(plans[0].firings_per_iteration, 3);
        assert_eq!(plans[1].firings_per_iteration, 2);
        assert_eq!(plans[0].sim_cycles_per_firing, 7);
        assert_eq!(plans[1].sim_cycles_per_firing, 9);
        assert_eq!(plans[0].clock_divider, 6);
        assert_eq!(plans[1].clock_divider, 7);
        assert!(plans.iter().all(|p| p.rate_matcher.is_none()));
        for (plan, d) in plans.iter().zip([6u64, 7]) {
            assert_eq!(
                compiled.hyperperiod() / d,
                plan.firings_per_iteration * plan.sim_cycles_per_firing,
                "each column executes exactly its work per hyperperiod"
            );
        }
    }

    #[test]
    fn execution_matches_repetition_vector_exactly() {
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        let report = compiled.execute().unwrap();
        assert_eq!(report.firing_counts, vec![15, 10]);
        assert!(report.firings_exact());
        // Each firing moves `produce` words across the cross-column edge:
        // 15 firings × 2 words.
        assert_eq!(report.simulated_horizontal_words, 30);
        assert_eq!(report.predicted_horizontal_words, 30);
        assert_eq!(report.horizontal_traffic_error(), 0.0);
        // Column cycles are exactly firings × slots (halt not billed).
        assert_eq!(report.column_cycles, vec![15 * 7, 10 * 9]);
        // The drain tail is at most one hyperperiod past the iterations.
        assert!(report.reference_ticks <= (options.iterations + 1) * report.hyperperiod);
    }

    #[test]
    fn intra_column_distribution_happens_once_per_firing() {
        let (g, m) = two_actor_chain(1, 1);
        let options = MapperOptions {
            iterations: 3,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        let report = compiled.execute().unwrap();
        // Column 0 has 4 sim tiles, column 1 has 2: both distribute each
        // produced token once per firing over the vertical bus.
        assert_eq!(report.intra_column_words, vec![3, 3]);
    }

    #[test]
    fn oversized_dividers_fall_back_to_rate_matching() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("fast", 1, 1);
        let b = g.add_actor("slow", 97, 1);
        g.add_edge(a, b, 50, 1, 0).unwrap();
        let mut m = Mapping::new();
        m.place(a, 1, 1.0);
        m.place(b, 1, 1.0);
        let options = MapperOptions {
            max_divider: 8,
            iterations: 1,
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &options).unwrap();
        // reps = (1, 50): the fast actor's ideal divider exceeds 8.
        let throttled = compiled
            .plans()
            .iter()
            .filter(|p| p.rate_matcher.is_some())
            .count();
        assert!(throttled >= 1, "at least one column must fall back to ZORM");
        assert!(compiled.plans().iter().all(|p| p.clock_divider <= 8));
        // The chip still drains.
        let mut compiled = compiled;
        let report = compiled.execute().unwrap();
        assert_eq!(report.firing_counts, report.expected_firings);
    }

    #[test]
    fn compute_costs_scale_into_the_dou_budget() {
        let (g, m, rate) = wifi_reference();
        let options = MapperOptions {
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &options).unwrap();
        for plan in compiled.plans() {
            assert!(plan.sim_cycles_per_firing <= synchro_dou::MAX_STATES as u64);
        }
        // Scaling preserves the cost ordering: ACS remains the slowest.
        let acs = &compiled.plans()[2];
        assert!(compiled
            .plans()
            .iter()
            .all(|p| p.sim_cycles_per_firing <= acs.sim_cycles_per_firing));
        // And the voltage annotation follows the required frequency.
        assert!(acs.voltage > compiled.plans()[1].voltage);
    }

    #[test]
    fn execute_reports_deltas_not_lifetime_counters() {
        let (g, m) = two_actor_chain(1, 1);
        let options = MapperOptions {
            iterations: 2,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        // Traffic staged by hand before execution must not pollute the
        // report's simulated word count.
        compiled.chip_mut().horizontal_transfer(0, &[1]).unwrap();
        let report = compiled.execute().unwrap();
        assert_eq!(report.simulated_horizontal_words, 2);
        assert!(report.firings_exact());
        assert_eq!(report.horizontal_traffic_error(), 0.0);
        // A second execute covers an already-halted chip: an honest empty
        // (and therefore inexact) run, not a replay of stale counters.
        let rerun = compiled.execute().unwrap();
        assert_eq!(rerun.firing_counts, vec![0, 0]);
        assert!(!rerun.firings_exact());
        assert_eq!(rerun.simulated_horizontal_words, 0);
    }

    #[test]
    fn cross_validation_rejects_mismatched_block_counts() {
        use crate::pipeline::{evaluate_application, EvaluationOptions};
        use synchro_apps::{Application, ApplicationProfile};

        // A 4-column 802.11a chip validated against the 5-block DDC report
        // must flag the structural mismatch instead of truncating.
        let (graph, mapping, rate) = wifi_reference();
        let options = MapperOptions {
            iterations: 1,
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&graph, &mapping, &options).unwrap();
        let execution = compiled.execute().unwrap();
        let wrong_report = evaluate_application(
            &ApplicationProfile::of(Application::Ddc),
            &Technology::isca2004(),
            &EvaluationOptions::default(),
        );
        let validation = cross_validate(&compiled, &execution, &wrong_report);
        assert!(!validation.blocks_match);
        assert!(!validation.agrees_within(1.0));
    }

    #[test]
    fn compile_rejects_invalid_placements_loudly() {
        let (g, _) = two_actor_chain(1, 1);
        let mut m = Mapping::new();
        m.place(ActorId(0), 0, 1.0); // zero tiles
        m.place(ActorId(1), 9, 1.0); // parallelism cap is 4
        match compile(&g, &m, &MapperOptions::default()) {
            Err(MapperError::InvalidMapping { violations }) => {
                assert_eq!(violations.len(), 2);
                assert!(matches!(violations[0], MappingViolation::ZeroTiles { .. }));
                assert!(matches!(
                    violations[1],
                    MappingViolation::OverParallel { tiles: 9, .. }
                ));
            }
            other => panic!("expected InvalidMapping, got {other:?}"),
        }
    }

    #[test]
    fn explored_solutions_compile_and_cross_validate() {
        use synchro_explore::{explore, ExplorerConfig};

        let (graph, _, rate) = ddc_reference();
        let config = ExplorerConfig::new(rate, 50).single_actor_columns();
        let exploration = explore(&graph, &config).unwrap();
        let winner = exploration
            .solution_for_tiles(50)
            .expect("reference budget reachable");
        let options = MapperOptions {
            iterations: 2,
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let mut compiled = compile_explored(&graph, winner, &options).unwrap();
        let execution = compiled.execute().unwrap();
        assert!(execution.firings_exact());

        use crate::pipeline::{try_evaluate_application, EvaluationOptions};
        use synchro_apps::{Application, ApplicationProfile};
        let report = try_evaluate_application(
            &ApplicationProfile::of(Application::Ddc),
            &Technology::isca2004(),
            &EvaluationOptions::default(),
        )
        .unwrap();
        let validation = cross_validate(&compiled, &execution, &report);
        assert!(validation.agrees_within(1e-9));
    }

    #[test]
    fn fused_explorer_solutions_still_execute_exactly() {
        use synchro_explore::{explore, ExplorerConfig};

        // Grouping enabled: the DDC winner fuses mixer + integrator.
        let (graph, _, rate) = ddc_reference();
        let exploration = explore(&graph, &ExplorerConfig::new(rate, 50)).unwrap();
        assert!(!exploration.best.is_single_actor_columns());
        let options = MapperOptions {
            iterations: 2,
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let mut compiled = compile_explored(&graph, &exploration.best, &options).unwrap();
        let execution = compiled.execute().unwrap();
        assert!(execution.firings_exact());
        assert_eq!(execution.horizontal_traffic_error(), 0.0);
    }

    #[test]
    fn compiled_chips_carry_a_conflict_free_route_schedule() {
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        let route = compiled.route().clone();
        route.validate().unwrap();
        // reps = (3, 2): the cross edge moves 6 words per iteration.
        assert_eq!(route.occupied_slots(), 6);
        assert_eq!(route.words_for_edge(0), 6);
        // Default bus: 1 split at 400 MHz over a 1 MHz iteration rate.
        assert_eq!(route.spec().period(), 400);
        assert_eq!(route.spec().splits(), 1);

        let report = compiled.execute().unwrap();
        assert_eq!(report.occupied_bus_slots, 5 * 6);
        assert_eq!(report.scheduled_bus_slots, 5 * 400);
        assert_eq!(report.simulated_horizontal_words, 30);
    }

    #[test]
    fn narrow_bus_rejects_unschedulable_mappings() {
        // The DDC reference moves 10 words per iteration at 16 M
        // iterations/s; a 100 MHz single-split bus offers only
        // floor(100/16) = 6 TDM slots per iteration, so the mapping must
        // be rejected as communication-infeasible — while the same
        // mapping at the reference 400 MHz bus schedules fine.
        let (g, m, rate) = ddc_reference();
        let narrow = MapperOptions {
            iteration_rate_hz: rate,
            bus_frequency_hz: 100e6,
            ..MapperOptions::default()
        };
        match compile(&g, &m, &narrow) {
            Err(MapperError::Route(RouteError::PeriodOverflow { demand, capacity })) => {
                assert_eq!(demand, 10);
                assert_eq!(capacity, 6);
            }
            other => panic!("expected a period overflow, got {other:?}"),
        }
        let reference = MapperOptions {
            iteration_rate_hz: rate,
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &reference).unwrap();
        compiled.route().validate().unwrap();
        assert_eq!(compiled.route().occupied_slots(), 10);
        // A second split halves the pressure: the narrow clock schedules.
        let widened = MapperOptions {
            iteration_rate_hz: rate,
            bus_frequency_hz: 100e6,
            bus_splits: 2,
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &widened).unwrap();
        compiled.route().validate().unwrap();
    }

    /// Execute the same `(graph, mapping, options)` on both tiers and
    /// require bit-identical reports and chip statistics.
    fn assert_tiers_agree(graph: &SdfGraph, mapping: &Mapping, options: &MapperOptions) {
        let interpreted_options = MapperOptions {
            tier: ExecutionTier::Interpreted,
            ..options.clone()
        };
        let fast_options = MapperOptions {
            tier: ExecutionTier::Fast,
            ..options.clone()
        };
        let mut interpreted = compile(graph, mapping, &interpreted_options).unwrap();
        let mut fast = compile(graph, mapping, &fast_options).unwrap();
        let a = interpreted.execute().unwrap();
        let b = fast.execute().unwrap();
        assert_eq!(a, b, "execution reports diverge");
        assert_eq!(interpreted.chip().stats(), fast.chip().stats());
        assert_eq!(
            interpreted.chip().column_stats(),
            fast.chip().column_stats()
        );
        assert_eq!(
            interpreted.chip().horizontal_stats(),
            fast.chip().horizontal_stats()
        );
        for i in 0..interpreted.chip().columns() {
            assert_eq!(
                interpreted.chip().column(i).unwrap().bus_stats(),
                fast.chip().column(i).unwrap().bus_stats(),
                "column {i} vertical bus diverges"
            );
        }
        // A second execute covers an already-halted chip on both tiers.
        let a2 = interpreted.execute().unwrap();
        let b2 = fast.execute().unwrap();
        assert_eq!(a2, b2, "rerun reports diverge");
    }

    #[test]
    fn fast_tier_matches_the_interpreted_tier_bit_for_bit() {
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        assert_tiers_agree(&g, &m, &options);
    }

    #[test]
    fn fast_tier_matches_on_zorm_fallback_chips() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("fast", 1, 1);
        let b = g.add_actor("slow", 97, 1);
        g.add_edge(a, b, 50, 1, 0).unwrap();
        let mut m = Mapping::new();
        m.place(a, 1, 1.0);
        m.place(b, 1, 1.0);
        let options = MapperOptions {
            max_divider: 8,
            iterations: 2,
            ..MapperOptions::default()
        };
        assert_tiers_agree(&g, &m, &options);
    }

    #[test]
    fn fast_tier_matches_on_the_reference_applications() {
        for (g, m, rate) in [ddc_reference(), wifi_reference()] {
            let options = MapperOptions {
                iterations: 3,
                iteration_rate_hz: rate,
                ..MapperOptions::default()
            };
            assert_tiers_agree(&g, &m, &options);
        }
    }

    #[test]
    fn segmented_bus_options_gate_reachability() {
        let (g, m) = two_actor_chain(1, 1);
        // Split 0 with the switch between columns 0 and 1 open: the cross
        // edge cannot be scheduled.
        let mut open = SegmentConfig::all_closed(1, 2);
        open.set(0, 0, false);
        let severed = MapperOptions {
            bus_segments: Some(open),
            ..MapperOptions::default()
        };
        assert!(matches!(
            compile(&g, &m, &severed),
            Err(MapperError::Route(RouteError::Unreachable { .. }))
        ));
        // The same topology with the switch closed schedules fine.
        let connected = MapperOptions {
            bus_segments: Some(SegmentConfig::all_closed(1, 2)),
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &connected).unwrap();
        compiled.route().validate().unwrap();
    }

    #[test]
    fn compile_rejects_multi_chip_mappings() {
        let (g, _) = two_actor_chain(1, 1);
        let mut m = Mapping::new();
        m.place(ActorId(0), 1, 1.0);
        m.place_on_chip(1, ActorId(1), 1, 1.0);
        match compile(&g, &m, &MapperOptions::default()) {
            Err(MapperError::InvalidMapping { violations }) => {
                assert!(violations
                    .iter()
                    .any(|v| matches!(v, MappingViolation::ChipOutOfRange { chip: 1, .. })));
            }
            other => panic!("expected InvalidMapping, got {other:?}"),
        }
    }

    #[test]
    fn board_of_one_chip_matches_the_legacy_compile_path() {
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut legacy = compile(&g, &m, &options).unwrap();
        let mut board = compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
        assert_eq!(board.chips(), 1);
        assert_eq!(board.bridge_words_per_iteration(), 0);

        let single = legacy.execute().unwrap();
        let report = board.execute().unwrap();
        assert_eq!(report.chips.len(), 1);
        assert_eq!(report.chips[0], single, "per-chip report diverges");
        assert_eq!(report.reference_ticks, single.reference_ticks);
        assert_eq!(report.bridge_words, 0);
        assert_eq!(report.scheduled_bridge_slots, 0);
        assert_eq!(
            legacy.chip().stats(),
            board.board().chip(0).unwrap().stats()
        );
    }

    #[test]
    fn board_compile_splits_a_chain_across_two_chips() {
        let (g, _) = two_actor_chain(2, 3);
        let mut m = Mapping::new();
        m.place_on_chip(0, ActorId(0), 4, 1.0);
        m.place_on_chip(1, ActorId(1), 2, 1.0);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut board = compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
        assert_eq!(board.chips(), 2);
        // The whole cross edge now crosses the chip boundary: 3 firings ×
        // 2 words per iteration over the bridge, nothing intra-chip.
        assert_eq!(board.bridge_words_per_iteration(), 6);
        assert!(board.chip_cross_edges(0).is_empty());
        assert!(board.chip_cross_edges(1).is_empty());
        assert_eq!(board.route().bridge().words(), 6);

        let report = board.execute().unwrap();
        assert!(report.firings_exact());
        assert_eq!(report.chips[0].firing_counts, vec![15]);
        assert_eq!(report.chips[1].firing_counts, vec![10]);
        assert_eq!(report.bridge_words, 5 * 6);
        assert_eq!(report.predicted_bridge_words, 5 * 6);
        assert_eq!(report.bridge_traffic_error(), 0.0);
        assert_eq!(report.occupied_bridge_slots, 5 * 6);
        assert!(report.scheduled_bridge_slots >= report.occupied_bridge_slots);
        assert_eq!(report.lane_words.iter().sum::<u64>(), 30);
        // Both chips share the global hyperperiod and one reference clock.
        assert_eq!(report.chips[0].hyperperiod, report.chips[1].hyperperiod);
    }

    /// Execute the same board mapping on both tiers and require
    /// bit-identical reports and statistics, chip by chip.
    fn assert_board_tiers_agree(graph: &SdfGraph, mapping: &Mapping, options: &MapperOptions) {
        let board_config = BoardConfig::default();
        let interpreted_options = MapperOptions {
            tier: ExecutionTier::Interpreted,
            ..options.clone()
        };
        let fast_options = MapperOptions {
            tier: ExecutionTier::Fast,
            ..options.clone()
        };
        let mut interpreted =
            compile_board(graph, mapping, &interpreted_options, &board_config).unwrap();
        let mut fast = compile_board(graph, mapping, &fast_options, &board_config).unwrap();
        let a = interpreted.execute().unwrap();
        let b = fast.execute().unwrap();
        assert_eq!(a, b, "board execution reports diverge");
        assert_eq!(
            interpreted.board().bridge_stats(),
            fast.board().bridge_stats()
        );
        assert_eq!(interpreted.board().lane_words(), fast.board().lane_words());
        for c in 0..interpreted.chips() {
            assert_eq!(
                interpreted.board().chip(c).unwrap().stats(),
                fast.board().chip(c).unwrap().stats(),
                "chip {c} stats diverge"
            );
            assert_eq!(
                interpreted.board().chip(c).unwrap().column_stats(),
                fast.board().chip(c).unwrap().column_stats(),
                "chip {c} column stats diverge"
            );
        }
        // A second execute covers an already-halted board on both tiers.
        let a2 = interpreted.execute().unwrap();
        let b2 = fast.execute().unwrap();
        assert_eq!(a2, b2, "board rerun reports diverge");
    }

    #[test]
    fn board_tiers_agree_on_a_two_chip_split() {
        let (g, _) = two_actor_chain(2, 3);
        let mut m = Mapping::new();
        m.place_on_chip(0, ActorId(0), 4, 1.0);
        m.place_on_chip(1, ActorId(1), 2, 1.0);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        assert_board_tiers_agree(&g, &m, &options);
    }

    #[test]
    fn narrow_bridges_reject_cross_chip_traffic() {
        let (g, _) = two_actor_chain(2, 3);
        let mut m = Mapping::new();
        m.place_on_chip(0, ActorId(0), 4, 1.0);
        m.place_on_chip(1, ActorId(1), 2, 1.0);
        // 6 words per iteration over the bridge; a 4 MHz bridge at a 1 MHz
        // iteration rate offers only 4 cycles of one 1-word lane.
        let options = MapperOptions::default();
        let narrow = BoardConfig {
            bridge_frequency_hz: 4e6,
            ..BoardConfig::default()
        };
        match compile_board(&g, &m, &options, &narrow) {
            Err(MapperError::Route(RouteError::BridgeOversubscribed {
                from_chip,
                to_chip,
                demand,
                capacity,
            })) => {
                assert_eq!((from_chip, to_chip), (0, 1));
                assert_eq!(demand, 6);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected a bridge oversubscription, got {other:?}"),
        }
    }

    #[test]
    fn fault_spec_rejects_placements_on_dead_hardware() {
        let (g, m) = two_actor_chain(2, 3);
        let mut faults = FaultSpec::none();
        faults.fail_column(0, 1);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        match compile(&g, &m, &options) {
            Err(e @ MapperError::Fault { .. }) => {
                assert!(e.is_fault());
                assert!(!e.is_resource_exhaustion());
                let MapperError::Fault { violations } = &e else {
                    unreachable!()
                };
                assert!(matches!(
                    violations[..],
                    [MappingViolation::FailedColumn {
                        chip: 0,
                        column: 1,
                        ..
                    }]
                ));
                let text = e.to_string();
                assert!(text.contains("failed hardware"), "{text}");
                assert!(text.contains("column 1"), "{text}");
            }
            other => panic!("expected a fault rejection, got {other:?}"),
        }
        // A failed tile under a placement is rejected the same way.
        let mut faults = FaultSpec::none();
        faults.fail_tile(0, 0, 2);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        assert!(matches!(
            compile(&g, &m, &options),
            Err(MapperError::Fault { .. })
        ));
        // Faults on hardware the mapping never touches compile fine.
        let mut faults = FaultSpec::none();
        faults.fail_column(0, 7).fail_tile(0, 1, 3);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        compile(&g, &m, &options).unwrap();
    }

    #[test]
    fn lost_bus_splits_shrink_or_reject_the_route() {
        let (g, m) = two_actor_chain(2, 3);
        // Losing the only split leaves the chip unroutable: fault class.
        let mut faults = FaultSpec::none();
        faults.lose_splits(0, 1);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        match compile(&g, &m, &options) {
            Err(MapperError::Fault { violations }) => {
                assert!(matches!(
                    violations[..],
                    [MappingViolation::BusSplitsExhausted {
                        chip: 0,
                        splits: 1,
                        lost: 1,
                    }]
                ));
            }
            other => panic!("expected a split exhaustion fault, got {other:?}"),
        }
        // With two splits configured, losing one routes on the survivor.
        let mut faults = FaultSpec::none();
        faults.lose_splits(0, 1);
        let options = MapperOptions {
            bus_splits: 2,
            faults,
            ..MapperOptions::default()
        };
        let compiled = compile(&g, &m, &options).unwrap();
        assert_eq!(compiled.route().spec().splits(), 1);
    }

    #[test]
    fn severed_bridge_directions_are_fault_rejections() {
        let (g, _) = two_actor_chain(2, 3);
        let mut m = Mapping::new();
        m.place_on_chip(0, ActorId(0), 4, 1.0);
        m.place_on_chip(1, ActorId(1), 2, 1.0);
        let mut faults = FaultSpec::none();
        faults.fail_lane(0, 1);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        match compile_board(&g, &m, &options, &BoardConfig::default()) {
            Err(MapperError::Fault { violations }) => {
                assert!(matches!(
                    violations[..],
                    [MappingViolation::BridgeDown {
                        from_chip: 0,
                        to_chip: 1,
                    }]
                ));
            }
            other => panic!("expected a bridge-down fault, got {other:?}"),
        }
        // Degrading the lane to zero width severs it the same way; a
        // nonzero degradation still routes (capacity permitting).
        let mut faults = FaultSpec::none();
        faults.degrade_lane(0, 1, 0);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        assert!(matches!(
            compile_board(&g, &m, &options, &BoardConfig::default()),
            Err(MapperError::Fault { .. })
        ));
        // Killing the unused reverse direction is harmless.
        let mut faults = FaultSpec::none();
        faults.fail_lane(1, 0);
        let options = MapperOptions {
            faults,
            ..MapperOptions::default()
        };
        compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
    }

    #[test]
    fn every_error_variant_has_a_distinct_code() {
        use synchro_sdf::SdfError;

        let one_per_variant = [
            MapperError::Sdf(SdfError::Empty),
            MapperError::Dou(synchro_dou::DouError::EmptyPattern),
            MapperError::Column(ColumnError::Bus(synchro_bus::BusError::IndexOutOfRange {
                what: "split",
                index: 9,
                limit: 1,
            })),
            MapperError::UnplacedActor { actor: ActorId(0) },
            MapperError::DuplicatePlacement { actor: ActorId(0) },
            MapperError::InvalidMapping { violations: vec![] },
            MapperError::Explorer(ExplorerError::NoSolutions),
            MapperError::Route(RouteError::Unreachable { from: 0, to: 1 }),
            MapperError::Overflow { what: "test" },
            MapperError::Incomplete { ticks: 7 },
            MapperError::FastTier(FastTierError::NonUniform { firing: 2 }),
            MapperError::Fault { violations: vec![] },
            MapperError::SimFault(SimFault::Stalled {
                reference_cycles: 252,
                window: 126,
            }),
        ];
        let mut codes = std::collections::BTreeSet::new();
        for e in &one_per_variant {
            // No wildcard arm: a new variant fails to compile here until
            // it joins the list above.
            match e {
                MapperError::Sdf(_)
                | MapperError::Dou(_)
                | MapperError::Column(_)
                | MapperError::UnplacedActor { .. }
                | MapperError::DuplicatePlacement { .. }
                | MapperError::InvalidMapping { .. }
                | MapperError::Explorer(_)
                | MapperError::Route(_)
                | MapperError::Overflow { .. }
                | MapperError::Incomplete { .. }
                | MapperError::FastTier(_)
                | MapperError::Fault { .. }
                | MapperError::SimFault(_) => {}
            }
            assert!(!e.code().is_empty(), "{e}");
            assert!(
                codes.insert(e.code()),
                "duplicate code {} for {e}",
                e.code()
            );
        }
        assert_eq!(MapperError::Incomplete { ticks: 1 }.code(), "incomplete");
        let route = RouteError::PeriodOverflow {
            demand: 10,
            capacity: 6,
        };
        assert_eq!(MapperError::Route(route.clone()).code(), route.code());
        let explorer = || ExplorerError::BudgetTooSmall {
            min_groups: 3,
            budget: 2,
        };
        assert_eq!(MapperError::Explorer(explorer()).code(), explorer().code());
    }

    #[test]
    fn error_classification_covers_every_variant() {
        use synchro_sdf::SdfError;

        let exhaustion = [
            MapperError::Route(RouteError::PeriodOverflow {
                demand: 10,
                capacity: 6,
            }),
            MapperError::Explorer(ExplorerError::NoSolutions),
            MapperError::Incomplete { ticks: 7 },
        ];
        for e in &exhaustion {
            assert!(e.is_resource_exhaustion(), "{e}");
            assert!(!e.is_fault(), "{e}");
        }
        let faults = [
            MapperError::Fault {
                violations: vec![MappingViolation::FailedColumn {
                    actor: ActorId(0),
                    chip: 0,
                    column: 1,
                }],
            },
            MapperError::SimFault(SimFault::Stalled {
                reference_cycles: 252,
                window: 126,
            }),
        ];
        for e in &faults {
            assert!(e.is_fault(), "{e}");
            assert!(!e.is_resource_exhaustion(), "{e}");
        }
        let neither = [
            MapperError::Sdf(SdfError::Empty),
            MapperError::Dou(synchro_dou::DouError::EmptyPattern),
            MapperError::Column(ColumnError::Bus(synchro_bus::BusError::IndexOutOfRange {
                what: "split",
                index: 9,
                limit: 1,
            })),
            MapperError::UnplacedActor { actor: ActorId(0) },
            MapperError::DuplicatePlacement { actor: ActorId(0) },
            MapperError::InvalidMapping { violations: vec![] },
            MapperError::Explorer(ExplorerError::Sdf(SdfError::Empty)),
            MapperError::Route(RouteError::Unreachable { from: 0, to: 1 }),
            MapperError::Overflow { what: "test" },
            MapperError::FastTier(FastTierError::NonUniform { firing: 2 }),
        ];
        for e in &neither {
            assert!(!e.is_resource_exhaustion(), "{e}");
            assert!(!e.is_fault(), "{e}");
        }
    }

    #[test]
    fn empty_fault_plans_match_plain_execution_bit_for_bit() {
        for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
            let (g, m) = two_actor_chain(2, 3);
            let options = MapperOptions {
                iterations: 3,
                tier,
                ..MapperOptions::default()
            };
            let mut plain = compile(&g, &m, &options).unwrap();
            let mut faulted = compile(&g, &m, &options).unwrap();
            let report = plain.execute().unwrap();
            let run = faulted.execute_faulted(&FaultPlan::none()).unwrap();
            assert_eq!(run.fault, None);
            assert_eq!(run.report, report);
            assert_eq!(plain.chip().stats(), faulted.chip().stats());
        }
    }

    #[test]
    fn faults_scheduled_past_the_halt_never_fire() {
        for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
            let (g, m) = two_actor_chain(2, 3);
            let options = MapperOptions {
                iterations: 3,
                tier,
                ..MapperOptions::default()
            };
            let mut plain = compile(&g, &m, &options).unwrap();
            let mut faulted = compile(&g, &m, &options).unwrap();
            let report = plain.execute().unwrap();
            let mut plan = FaultPlan::none();
            plan.kill_column(0, 0, 1_000_000);
            let run = faulted.execute_faulted(&plan).unwrap();
            assert_eq!(run.fault, None, "the chip halts before the event");
            assert_eq!(run.report, report);
            assert_eq!(plain.chip().stats(), faulted.chip().stats());
        }
    }

    #[test]
    fn mid_run_column_kills_stall_identically_on_every_tier() {
        let mut outcomes = Vec::new();
        for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
            let (g, m) = two_actor_chain(2, 3);
            let options = MapperOptions {
                iterations: 5,
                tier,
                ..MapperOptions::default()
            };
            let mut compiled = compile(&g, &m, &options).unwrap();
            let mut plan = FaultPlan::none();
            plan.kill_column(0, 1, 200);
            let run = compiled.execute_faulted(&plan).unwrap();
            let fault = run.fault.expect("a killed column starves the chip");
            assert!(matches!(fault, SimFault::Stalled { .. }));
            // The surviving column finished its own work before starving.
            assert_eq!(run.report.firing_counts[0], 15);
            outcomes.push((run, compiled.chip().stats()));
        }
        // And the naive tick-by-tick driver agrees with both.
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        let mut plan = FaultPlan::none();
        plan.kill_column(0, 1, 200);
        let run = compiled.execute_faulted_ticked(&plan).unwrap();
        outcomes.push((run, compiled.chip().stats()));
        let (first_run, first_stats) = &outcomes[0];
        for (run, stats) in &outcomes[1..] {
            assert_eq!(run, first_run, "faulted runs diverge across tiers");
            assert_eq!(stats, first_stats, "chip stats diverge across tiers");
        }
    }

    #[test]
    fn wedged_chips_return_structured_stalls_from_normal_execution() {
        let (g, m) = two_actor_chain(2, 3);
        let options = MapperOptions {
            iterations: 2,
            ..MapperOptions::default()
        };
        let mut compiled = compile(&g, &m, &options).unwrap();
        // Kill a column by hand before the run: the drain watchdog must
        // report a structured stall instead of spinning to Incomplete.
        compiled.chip_mut().fail_column(0, 0);
        match compiled.execute() {
            Err(e @ MapperError::SimFault(SimFault::Stalled { .. })) => {
                assert!(e.is_fault());
            }
            other => panic!("expected a structured stall, got {other:?}"),
        }
    }

    #[test]
    fn board_lane_kills_drop_traffic_but_complete() {
        let (g, _) = two_actor_chain(2, 3);
        let mut m = Mapping::new();
        m.place_on_chip(0, ActorId(0), 4, 1.0);
        m.place_on_chip(1, ActorId(1), 2, 1.0);
        let options = MapperOptions {
            iterations: 5,
            ..MapperOptions::default()
        };
        let mut plain = compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
        let healthy = plain.execute().unwrap();
        assert_eq!(healthy.bridge_words, 30);

        let mut board = compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
        let mut plan = FaultPlan::none();
        plan.kill_lane(0, 200);
        let run = board.execute_faulted(&plan).unwrap();
        // Receives never block, so a dead lane starves nobody: the run
        // completes with the post-fault slots dropped undelivered.
        assert_eq!(run.fault, None);
        assert!(run.report.firings_exact());
        assert!(
            run.report.bridge_words < healthy.bridge_words,
            "post-fault slots must be dropped ({} words)",
            run.report.bridge_words
        );
        assert_eq!(
            run.report.scheduled_bridge_slots, healthy.scheduled_bridge_slots,
            "dead lanes drop deliveries, not reservations"
        );
    }

    #[test]
    fn board_column_kills_stall_identically_on_both_tiers() {
        let mut runs = Vec::new();
        for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
            let (g, _) = two_actor_chain(2, 3);
            let mut m = Mapping::new();
            m.place_on_chip(0, ActorId(0), 4, 1.0);
            m.place_on_chip(1, ActorId(1), 2, 1.0);
            let options = MapperOptions {
                iterations: 5,
                tier,
                ..MapperOptions::default()
            };
            let mut board = compile_board(&g, &m, &options, &BoardConfig::default()).unwrap();
            let mut plan = FaultPlan::none();
            plan.kill_column(1, 0, 150);
            let run = board.execute_faulted(&plan).unwrap();
            assert!(matches!(run.fault, Some(SimFault::Stalled { .. })));
            // Chip 0's column still finished its own firings.
            assert_eq!(run.report.chips[0].firing_counts, vec![15]);
            runs.push(run);
        }
        assert_eq!(runs[0], runs[1], "board tiers diverge on the fault");
    }

    #[test]
    fn single_column_graph_has_no_horizontal_traffic() {
        let mut g = SdfGraph::new();
        g.add_actor("solo", 3, 4);
        let mut m = Mapping::new();
        m.place(ActorId(0), 4, 1.0);
        let mut compiled = compile(&g, &m, &MapperOptions::default()).unwrap();
        assert!(compiled.cross_edges().is_empty());
        let report = compiled.execute().unwrap();
        assert_eq!(report.simulated_horizontal_words, 0);
        assert_eq!(report.predicted_horizontal_words, 0);
        assert_eq!(report.horizontal_traffic_error(), 0.0);
    }
}
