//! The benchmark's client: turns one generated request into calls on the
//! library's public API, times each call as a layer span, and checks
//! every output.

use std::borrow::Cow;
use std::sync::Arc;

use synchroscalar::apps::{
    deep_pipeline, reference_graph, Application, ApplicationProfile, DEEP_PIPELINE_RATE_HZ,
};
use synchroscalar::explorer::{
    explore, explore_board, explore_degraded, explore_degraded_board, BoardSearch, CommSpec,
    DegradationCurve, ExplorerConfig, ExplorerError, ResourceLoss, SearchStats, RATE_LADDER,
};
use synchroscalar::mapper::{
    self, BoardConfig, BoardExecutionReport, CompiledBoard, CompiledChip, ExecutionReport,
    ExecutionTier, MapperError, MapperOptions,
};
use synchroscalar::power::Technology;
use synchroscalar::sdf::{FaultSpec, Mapping, SdfGraph};
use synchroscalar::sim::{FaultPlan, SimFault};
use synchroscalar::trace::analyze::{attribute, bottlenecks, PriceSpec};
use synchroscalar::trace::{RingBufferSink, Trace};

use crate::requests::{ColumnCounts, FaultTarget, Request, Structure, Workload, APPS};
use crate::spans::{Layer, Recorder};

/// Explorer worker threads.  Set explicitly (never 0 = "all cores") and
/// kept at one so a single client thread is the whole load on a 2-core
/// host.
pub const EXPLORER_THREADS: usize = 1;
/// Most chips a single-actor design-sweep search may shard across.
const MAX_CHIPS: usize = 2;
/// Per-chip tile budget of the `deep_pipeline` board (as in the
/// repository's board experiments).
const DEEP_PIPELINE_BUDGET: u32 = 40;
/// Board lane 0 carries chip 0 → chip 1 traffic on a two-chip board.
const FORWARD_LANE: usize = 0;
/// Largest allowed gap between event-priced and report-counter energy.
pub const ENERGY_TOLERANCE: f64 = 1e-3;
/// Verdict of an exploration whose cheapest solution violates the supply
/// voltage envelope.
const OUT_OF_ENVELOPE: &str = "out_of_envelope";
/// Verdict of a compiled mapping whose run cannot drain within the
/// mapper's tick budget (`MapperError::Incomplete`, which the library
/// classes as resource exhaustion).
const INCOMPLETE: &str = "incomplete";
/// Capture ring capacity; the ring grows lazily, and a run that fills it
/// fails the dropped-events check instead of under-counting silently.
const RING_CAPACITY: usize = 1 << 22;

/// One application a request can draw, with its reference operating point.
pub struct App {
    /// Application name.
    pub name: &'static str,
    /// SDF graph.
    pub graph: SdfGraph,
    /// Reference mapping (the paper's Table 4 mapping, or the two-chip
    /// partition for `deep_pipeline`).
    pub mapping: Mapping,
    /// Reference iteration rate.
    pub rate_hz: f64,
    /// Reference tile budget (per chip for the board).
    pub budget: u32,
}

/// Everything a request needs besides its own tuple.
pub struct Context {
    /// Technology every layer prices under.
    pub tech: Technology,
    /// The applications, indexed as in [`crate::requests::APPS`].
    pub apps: Vec<App>,
}

impl Context {
    /// Build the technology and the reference graphs and mappings.
    pub fn new() -> Result<Context, String> {
        let tech = Technology::isca2004();
        let mut apps: Vec<App> = Application::all()
            .into_iter()
            .map(|application| {
                let reference = reference_graph(application);
                App {
                    name: application.name(),
                    graph: reference.graph,
                    mapping: reference.mapping,
                    rate_hz: reference.iteration_rate_hz,
                    budget: ApplicationProfile::of(application).reference_tiles(),
                }
            })
            .collect();
        let graph = deep_pipeline();
        let config = explorer_config(&tech, DEEP_PIPELINE_RATE_HZ, DEEP_PIPELINE_BUDGET)
            .single_actor_columns()
            .with_board(BoardSearch::new(MAX_CHIPS));
        let board = explore_board(&graph, &config)
            .map_err(|e| format!("deep_pipeline does not partition: {e}"))?;
        apps.push(App {
            name: "deep_pipeline",
            graph,
            mapping: board.mapping(),
            rate_hz: DEEP_PIPELINE_RATE_HZ,
            budget: DEEP_PIPELINE_BUDGET,
        });
        assert_eq!(apps.len(), APPS);
        Ok(Context { tech, apps })
    }

    /// Columns per chip of every reference mapping.
    pub fn column_counts(&self) -> ColumnCounts {
        std::array::from_fn(|app| {
            let mapping = &self.apps[app].mapping;
            (0..mapping.chips())
                .map(|chip| {
                    mapping
                        .placements()
                        .iter()
                        .filter(|p| p.chip == chip)
                        .count()
                })
                .collect()
        })
    }
}

/// The result of a request that passed every check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated column cycles of the request's primary execution.
    pub sim_cycles: u64,
    /// FNV-1a digest of every simulated statistic the request produced.
    pub digest: u64,
    /// What the request concluded: `mapped`, an infeasibility code from
    /// the library's error taxonomy, `recovered` or `unrecoverable`.
    pub verdict: &'static str,
}

/// Run one request of `workload`.  `Err` is a failure: an unexpected
/// error or a failed output check.  A structured infeasibility verdict is
/// an `Ok` outcome.
pub fn run(
    ctx: &Context,
    workload: Workload,
    request: &Request,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    match (workload, request.fault) {
        (_, Some(_)) => fault_recovery(ctx, request, rec),
        (Workload::DesignSweep, None) => design_sweep(ctx, request, rec),
        (Workload::LongTrace, None) => long_trace(ctx, request, rec),
    }
}

/// The explorer configuration every request starts from: explicit thread
/// count, and the communication prune of the default horizontal bus so
/// explored mappings are ones the router can schedule.
fn explorer_config(tech: &Technology, rate_hz: f64, budget: u32) -> ExplorerConfig {
    let bus = MapperOptions::default();
    ExplorerConfig::new(rate_hz, budget)
        .with_tech(tech.clone())
        .with_threads(EXPLORER_THREADS)
        .with_comm(CommSpec::from_clock(
            bus.bus_splits as u32,
            bus.bus_frequency_hz,
            rate_hz,
        ))
}

fn design_sweep(ctx: &Context, req: &Request, rec: &mut Recorder) -> Result<Outcome, String> {
    let app = &ctx.apps[req.app];
    let rate_hz = app.rate_hz * req.rate.0 as f64 / req.rate.1 as f64;
    let budget = app.budget * req.budget.0 / req.budget.1;
    let config = explorer_config(&ctx.tech, rate_hz, budget);
    let mut digest = Digest::new();

    let (graph, mapping) = match req.structure {
        Structure::SingleActor => {
            let config = config
                .single_actor_columns()
                .with_board(BoardSearch::new(MAX_CHIPS));
            let explored = rec.time(Layer::Explore, || explore_board(&app.graph, &config));
            let board = match explorer_verdict(explored, rec, &mut digest)? {
                Ok(board) => board,
                Err(code) => return Ok(digest.outcome(0, code)),
            };
            count_search(rec, &board.stats);
            digest.add(board.chip_count() as u64);
            digest.add(u64::from(board.total_tiles()));
            digest.add_f64(board.total_power_mw());
            let mapping = rec.time(Layer::Realize, || board.mapping());
            (Cow::Borrowed(&app.graph), mapping)
        }
        Structure::Fused => {
            let explored = rec.time(Layer::Explore, || explore(&app.graph, &config));
            let exploration = match explorer_verdict(explored, rec, &mut digest)? {
                Ok(exploration) => exploration,
                Err(code) => return Ok(digest.outcome(0, code)),
            };
            count_search(rec, &exploration.stats);
            let best = &exploration.best;
            digest.add(u64::from(best.total_tiles));
            digest.add_f64(best.power_mw);
            if !best.feasible {
                // The explorer answers "nothing fits the supply envelope"
                // with its cheapest out-of-envelope solution rather than an
                // error, so the taxonomy has no code for it; the label below
                // is the benchmark's own.  The verdict must be honest: some
                // column really is outside the envelope.
                if best.columns.iter().all(|c| c.within_envelope) {
                    return Err("infeasible best has every column within the envelope".to_owned());
                }
                rec.count("explore.infeasible", 1);
                return Ok(digest.outcome(0, OUT_OF_ENVELOPE));
            }
            let (graph, mapping) = rec
                .time(Layer::Realize, || best.realize(&app.graph))
                .map_err(|e| format!("realize failed: {e}"))?;
            (Cow::Owned(graph), mapping)
        }
    };

    let ring = Arc::new(RingBufferSink::new(RING_CAPACITY));
    let options = MapperOptions {
        iterations: req.frames,
        iteration_rate_hz: rate_hz,
        tech: ctx.tech.clone(),
        tier: req.tier,
        trace: Trace::to(ring.clone()),
        ..MapperOptions::default()
    };
    let compiled = rec.time(Layer::Compile, || Compiled::new(&graph, &mapping, &options));
    // The compiled mapping now holds the only other handle on the ring.
    drop(options);
    let mut compiled = match compiled {
        Ok(compiled) => compiled,
        Err(err) => {
            let code = rejection_code(&err)?;
            rec.count("compile.rejected", 1);
            digest.add_str(code);
            return Ok(digest.outcome(0, code));
        }
    };
    count_compile(rec, &compiled);
    let report = match rec.time(primary_layer(req.tier), || compiled.execute()) {
        Ok(report) => report,
        Err(err) => {
            let code = rejection_code(&err)?;
            digest.add_str(code);
            return Ok(digest.outcome(0, code));
        }
    };
    check_firings(&report)?;
    count_execution(rec, &report, req.tier);
    let analysis = rec.time(Layer::Analyze, || {
        Analysis::of(compiled, &report, ring, &ctx.tech)
    });
    analysis.check()?;
    count_analysis(rec, &analysis);
    report.digest(&mut digest);
    analysis.digest(&mut digest);
    Ok(digest.outcome(report.column_cycles(), "mapped"))
}

fn long_trace(ctx: &Context, req: &Request, rec: &mut Recorder) -> Result<Outcome, String> {
    let app = &ctx.apps[req.app];
    let base = MapperOptions {
        iterations: req.frames,
        iteration_rate_hz: app.rate_hz,
        tech: ctx.tech.clone(),
        ..MapperOptions::default()
    };
    let ring = Arc::new(RingBufferSink::new(RING_CAPACITY));
    let options = MapperOptions {
        tier: req.tier,
        trace: Trace::to(ring.clone()),
        ..base.clone()
    };
    let mut compiled = rec
        .time(Layer::Compile, || {
            Compiled::new(&app.graph, &app.mapping, &options)
        })
        .map_err(|e| format!("{}: reference mapping does not compile: {e}", app.name))?;
    // The compiled mapping now holds the only other handle on the ring.
    drop(options);
    count_compile(rec, &compiled);
    let report = rec
        .time(primary_layer(req.tier), || compiled.execute())
        .map_err(|e| format!("execute failed: {e}"))?;
    check_firings(&report)?;
    count_execution(rec, &report, req.tier);
    let analysis = rec.time(Layer::Analyze, || {
        Analysis::of(compiled, &report, ring, &ctx.tech)
    });
    analysis.check()?;
    count_analysis(rec, &analysis);

    // Replay on the fast tier: every statistic must match bit for bit.
    let replay_options = MapperOptions {
        tier: ExecutionTier::Fast,
        ..base
    };
    let mut replay = rec
        .time(Layer::Compile, || {
            Compiled::new(&app.graph, &app.mapping, &replay_options)
        })
        .map_err(|e| format!("fast-tier replay does not compile: {e}"))?;
    let replayed = rec
        .time(Layer::ExecuteFast, || replay.execute())
        .map_err(|e| format!("fast-tier replay failed: {e}"))?;
    if replayed != report {
        return Err(format!(
            "{}: fast-tier report differs from the interpreted one",
            app.name
        ));
    }

    let mut digest = Digest::new();
    report.digest(&mut digest);
    analysis.digest(&mut digest);
    Ok(digest.outcome(report.column_cycles(), "mapped"))
}

fn fault_recovery(ctx: &Context, req: &Request, rec: &mut Recorder) -> Result<Outcome, String> {
    let app = &ctx.apps[req.app];
    let fault = req.fault.ok_or("fault request without a fault")?;
    let options = MapperOptions {
        iterations: req.frames,
        iteration_rate_hz: app.rate_hz,
        tech: ctx.tech.clone(),
        tier: req.tier,
        ..MapperOptions::default()
    };
    let mut healthy = rec
        .time(Layer::Compile, || {
            Compiled::new(&app.graph, &app.mapping, &options)
        })
        .map_err(|e| format!("{}: reference mapping does not compile: {e}", app.name))?;
    count_compile(rec, &healthy);

    // Static half: the same mapping compiled against dead hardware must be
    // a structured fault rejection.
    let mut spec = FaultSpec::none();
    let mut plan = FaultPlan::none();
    let kill_tick = fault.kill_hyperperiods * healthy.hyperperiod();
    let loss = match fault.target {
        FaultTarget::Column { chip, column } => {
            spec.fail_column(chip, column);
            plan.kill_column(chip, column, kill_tick);
            let tiles = app
                .mapping
                .placements()
                .iter()
                .filter(|p| p.chip == chip)
                .nth(column)
                .ok_or_else(|| format!("{}: no column {column} on chip {chip}", app.name))?
                .tiles;
            ResourceLoss::column(format!("chip {chip} column {column}"), tiles)
        }
        FaultTarget::ForwardBridge => {
            spec.fail_lane(0, 1);
            plan.kill_lane(FORWARD_LANE, kill_tick);
            ResourceLoss::bridge("bridge 0->1 severed", 0)
        }
    };
    let faulted_options = MapperOptions {
        faults: spec,
        ..options.clone()
    };
    match rec.time(Layer::Compile, || {
        Compiled::new(&app.graph, &app.mapping, &faulted_options)
    }) {
        Err(err) if err.is_fault() => rec.count("compile.rejected", 1),
        Err(err) => return Err(format!("fault rejection is not fault-class: {err}")),
        Ok(_) => return Err(format!("{}: compiled onto dead hardware", app.name)),
    }

    // Runtime half.  A killed column never halts, so the run must end in
    // a structured stall rather than wedge.  Receives never block, so a
    // killed bridge lane starves nobody: the run must complete with the
    // post-kill bridge words dropped.
    let (report, stall) = rec
        .time(Layer::ExecuteFaulted, || healthy.execute_faulted(&plan))
        .map_err(|e| format!("execute_faulted failed: {e}"))?;
    rec.count("execute_faulted.calls", 1);
    let stalled_at = match (fault.target, stall) {
        (
            FaultTarget::Column { .. },
            Some(SimFault::Stalled {
                reference_cycles, ..
            }),
        ) if reference_cycles >= kill_tick => {
            rec.count("execute_faulted.stalls", 1);
            rec.count(
                "execute_faulted.ticks_after_kill",
                reference_cycles - kill_tick,
            );
            reference_cycles
        }
        (FaultTarget::ForwardBridge, None)
            if report.firings_exact()
                && report.bridge_words() < report.predicted_bridge_words() =>
        {
            report.reference_ticks()
        }
        (target, stall) => {
            return Err(format!(
                "{target:?} killed at tick {kill_tick}: unexpected outcome {stall:?}"
            ))
        }
    };

    // Recovery: re-explore without the lost resource down the rate ladder.
    let config = explorer_config(&ctx.tech, app.rate_hz, app.budget).single_actor_columns();
    let losses = [loss];
    let curve = if app.mapping.chips() > 1 {
        let config = config.with_board(BoardSearch::new(MAX_CHIPS));
        rec.time(Layer::ExploreDegraded, || {
            explore_degraded_board(&app.graph, &config, &losses)
        })
    } else {
        rec.time(Layer::ExploreDegraded, || {
            explore_degraded(&app.graph, &config, &losses)
        })
    }
    .map_err(|e| format!("explore_degraded failed: {e}"))?;
    let rungs = check_degradation(&curve)?;
    rec.count("explore_degraded.calls", 1);
    rec.count("explore_degraded.rungs_tried", rungs);
    rec.count(
        "explore_degraded.losses_resolved",
        curve.points.iter().filter(|p| p.feasible).count() as u64,
    );
    rec.count(
        "explore_degraded.infeasible_losses",
        curve.infeasible_losses().len() as u64,
    );

    let mut digest = Digest::new();
    report.digest(&mut digest);
    digest.add(stalled_at);
    for point in &curve.points {
        digest.add(point.rate_num);
        digest.add(point.rate_den);
        digest.add(u64::from(point.tiles_used));
        digest.add_f64(point.power_mw);
    }
    let verdict = if curve.infeasible_losses().is_empty() {
        "recovered"
    } else {
        "unrecoverable"
    };
    Ok(digest.outcome(report.column_cycles(), verdict))
}

fn primary_layer(tier: ExecutionTier) -> Layer {
    match tier {
        ExecutionTier::Fast => Layer::ExecuteFast,
        ExecutionTier::Interpreted => Layer::ExecuteInterpreted,
    }
}

/// Split an exploration result into a solution, or the code of a
/// structured infeasibility verdict (which also goes into the digest).
fn explorer_verdict<T>(
    result: Result<T, ExplorerError>,
    rec: &mut Recorder,
    digest: &mut Digest,
) -> Result<Result<T, &'static str>, String> {
    rec.count("explore.calls", 1);
    match result {
        Ok(solution) => Ok(Ok(solution)),
        Err(err) if err.is_resource_exhaustion() => {
            rec.count("explore.infeasible", 1);
            digest.add_str(err.code());
            Ok(Err(err.code()))
        }
        Err(err) => Err(format!("explore failed [{}]: {err}", err.code())),
    }
}

/// The code of a mapper error that is a correct infeasibility verdict —
/// one the library classes as resource exhaustion; anything else is a
/// failure.  `MapperError` has no `code()` of its own, so a run that
/// exhausts its tick budget is labelled [`INCOMPLETE`] here.
fn rejection_code(err: &MapperError) -> Result<&'static str, String> {
    let code = match err {
        MapperError::Route(e) if e.is_resource_exhaustion() => Some(e.code()),
        MapperError::Explorer(e) if e.is_resource_exhaustion() => Some(e.code()),
        MapperError::Incomplete { .. } => Some(INCOMPLETE),
        _ => None,
    };
    code.ok_or_else(|| format!("mapper failed without an infeasibility code: {err}"))
}

fn check_firings(report: &Report) -> Result<(), String> {
    if report.firings_exact() {
        Ok(())
    } else {
        Err("firing counts differ from the repetition vector".to_owned())
    }
}

/// A one-point degradation curve must be monotone, and either land on a
/// ladder rung with a real mapping or be an honest infeasible sentinel.
/// Returns the ladder rungs the walk tried.
fn check_degradation(curve: &DegradationCurve) -> Result<u64, String> {
    if !curve.is_monotone() {
        return Err("degradation curve is not monotone".to_owned());
    }
    let [point] = curve.points.as_slice() else {
        return Err(format!(
            "expected one curve point, got {}",
            curve.points.len()
        ));
    };
    if point.feasible {
        let rung = RATE_LADDER
            .iter()
            .position(|&r| r == (point.rate_num, point.rate_den))
            .ok_or_else(|| {
                format!(
                    "rate {}/{} is not a ladder rung",
                    point.rate_num, point.rate_den
                )
            })?;
        let expected_hz = curve.full_rate_hz * point.rate_num as f64 / point.rate_den as f64;
        if point.rate_hz != expected_hz || point.tiles_used == 0 || point.power_mw <= 0.0 {
            return Err(format!(
                "feasible degradation point is inconsistent: {point:?}"
            ));
        }
        Ok(rung as u64 + 1)
    } else if point.rate_num == 0
        && point.rate_hz == 0.0
        && point.tiles_used == 0
        && point.power_mw == 0.0
    {
        Ok(RATE_LADDER.len() as u64)
    } else {
        Err(format!(
            "infeasible degradation point carries a mapping: {point:?}"
        ))
    }
}

fn count_search(rec: &mut Recorder, stats: &SearchStats) {
    rec.count("explore.mappings_evaluated", stats.mappings_evaluated);
    rec.count("explore.groupings_examined", stats.groupings_examined);
    rec.count("explore.states_pruned", stats.states_pruned);
    rec.count("explore.comm_pruned", stats.groupings_comm_pruned);
}

fn count_compile(rec: &mut Recorder, compiled: &Compiled) {
    let shape = compiled.shape();
    rec.count("compile.compiled", 1);
    rec.count("compile.columns", shape.columns);
    rec.count("compile.bus_slots_occupied", shape.bus_occupied);
    rec.count("compile.bus_slots_idle", shape.bus_idle);
    rec.count("compile.bridge_slots_occupied", shape.bridge_occupied);
    rec.count("compile.hyperperiod_ticks", compiled.hyperperiod());
}

fn count_execution(rec: &mut Recorder, report: &Report, tier: ExecutionTier) {
    rec.count("execute.calls", 1);
    rec.count("execute.reference_ticks", report.reference_ticks());
    rec.count("execute.column_cycles", report.column_cycles());
    if tier == ExecutionTier::Interpreted {
        rec.count("execute.interpreted.column_cycles", report.column_cycles());
    }
    rec.count("execute.bus_words", report.bus_words());
    rec.count("execute.bridge_words", report.bridge_words());
}

fn count_analysis(rec: &mut Recorder, analysis: &Analysis) {
    rec.count("analyze.calls", 1);
    rec.count("analyze.events", analysis.events);
    rec.count("analyze.unpriced_events", analysis.unpriced);
    rec.count("analyze.dropped_events", analysis.dropped);
}

/// A compiled single chip or board.  Single-chip mappings go through
/// `mapper::compile` and `CompiledChip`, so both compiled types the
/// library offers are measured.
enum Compiled {
    Chip(CompiledChip),
    Board(CompiledBoard),
}

/// The execution report matching [`Compiled`].
#[derive(Debug, PartialEq)]
pub enum Report {
    Chip(ExecutionReport),
    Board(BoardExecutionReport),
}

/// Static shape of a compiled mapping.
struct Shape {
    columns: u64,
    bus_occupied: u64,
    bus_idle: u64,
    bridge_occupied: u64,
}

impl Compiled {
    fn new(
        graph: &SdfGraph,
        mapping: &Mapping,
        options: &MapperOptions,
    ) -> Result<Self, MapperError> {
        if mapping.chips() > 1 {
            mapper::compile_board(graph, mapping, options, &BoardConfig::default())
                .map(Compiled::Board)
        } else {
            mapper::compile(graph, mapping, options).map(Compiled::Chip)
        }
    }

    fn execute(&mut self) -> Result<Report, MapperError> {
        match self {
            Compiled::Chip(chip) => chip.execute().map(Report::Chip),
            Compiled::Board(board) => board.execute().map(Report::Board),
        }
    }

    fn execute_faulted(
        &mut self,
        plan: &FaultPlan,
    ) -> Result<(Report, Option<SimFault>), MapperError> {
        match self {
            Compiled::Chip(chip) => chip
                .execute_faulted(plan)
                .map(|run| (Report::Chip(run.report), run.fault)),
            Compiled::Board(board) => board
                .execute_faulted(plan)
                .map(|run| (Report::Board(run.report), run.fault)),
        }
    }

    fn hyperperiod(&self) -> u64 {
        match self {
            Compiled::Chip(chip) => chip.hyperperiod(),
            Compiled::Board(board) => board.hyperperiod(),
        }
    }

    fn price_spec(&self, tech: &Technology) -> PriceSpec {
        match self {
            Compiled::Chip(chip) => chip.price_spec(tech),
            Compiled::Board(board) => board.price_spec(tech),
        }
    }

    fn energy_j(&self, report: &Report, tech: &Technology) -> f64 {
        match (self, report) {
            (Compiled::Chip(chip), Report::Chip(r)) => chip.execution_energy(r, tech).total_j(),
            (Compiled::Board(board), Report::Board(r)) => board.execution_energy(r, tech).total_j(),
            _ => unreachable!("a report always comes from its own compiled type"),
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Compiled::Chip(chip) => Shape {
                columns: chip.plans().len() as u64,
                bus_occupied: chip.route().occupied_slots(),
                bus_idle: chip.route().idle_slots(),
                bridge_occupied: 0,
            },
            Compiled::Board(board) => {
                let route = board.route();
                Shape {
                    columns: (0..board.chips())
                        .map(|c| board.chip_plans(c).len() as u64)
                        .sum(),
                    bus_occupied: route.chips().iter().map(|s| s.occupied_slots()).sum(),
                    bus_idle: route.chips().iter().map(|s| s.idle_slots()).sum(),
                    bridge_occupied: route.bridge().occupied_slots(),
                }
            }
        }
    }
}

impl Report {
    fn chips(&self) -> &[ExecutionReport] {
        match self {
            Report::Chip(report) => std::slice::from_ref(report),
            Report::Board(report) => &report.chips,
        }
    }

    fn firings_exact(&self) -> bool {
        self.chips().iter().all(ExecutionReport::firings_exact)
    }

    fn reference_ticks(&self) -> u64 {
        match self {
            Report::Chip(report) => report.reference_ticks,
            Report::Board(report) => report.reference_ticks,
        }
    }

    fn bridge_words(&self) -> u64 {
        match self {
            Report::Chip(_) => 0,
            Report::Board(report) => report.bridge_words,
        }
    }

    fn predicted_bridge_words(&self) -> u64 {
        match self {
            Report::Chip(_) => 0,
            Report::Board(report) => report.predicted_bridge_words,
        }
    }

    fn column_cycles(&self) -> u64 {
        self.chips().iter().flat_map(|c| &c.column_cycles).sum()
    }

    fn bus_words(&self) -> u64 {
        self.chips()
            .iter()
            .map(|c| c.simulated_horizontal_words)
            .sum()
    }

    /// Fold every simulated statistic of the report into `digest`.
    fn digest(&self, digest: &mut Digest) {
        digest.add(self.reference_ticks());
        for chip in self.chips() {
            digest.add(chip.iterations);
            digest.add(chip.hyperperiod);
            digest.add(chip.simulated_horizontal_words);
            digest.add(chip.scheduled_bus_slots);
            digest.add(chip.occupied_bus_slots);
            digest.add_all(&chip.firing_counts);
            digest.add_all(&chip.column_cycles);
            digest.add_all(&chip.intra_column_words);
            for column in &chip.column_stats {
                digest.add_all(&[
                    column.cycles,
                    column.broadcasts,
                    column.branch_stalls,
                    column.rate_match_stalls,
                    column.bus_word_transfers,
                ]);
            }
            for bus in &chip.column_bus {
                digest.add_all(&[
                    bus.active_cycles,
                    bus.word_transfers,
                    bus.deliveries,
                    bus.scheduled_slots,
                    bus.occupied_slots,
                ]);
            }
        }
        if let Report::Board(board) = self {
            digest.add(board.bridge_words);
            digest.add(board.scheduled_bridge_slots);
            digest.add(board.occupied_bridge_slots);
            digest.add_all(&board.lane_words);
        }
    }
}

/// What the analyze layer derived from one captured run.
#[derive(Debug, Clone, Copy)]
pub struct Analysis {
    /// Event-priced energy (J).
    pub attributed_j: f64,
    /// Report-counter energy (J).
    pub report_j: f64,
    /// Events analysed.
    pub events: u64,
    /// Events the pricing spec could not bill.
    pub unpriced: u64,
    /// Events the capture ring evicted.
    pub dropped: u64,
    /// Utilization of the binding resource.
    pub binding_utilization: f64,
    /// Reference ticks of headroom per hyperperiod on the binding resource.
    pub headroom_ticks: u64,
}

impl Analysis {
    /// Analyze a captured run.  Takes the compiled mapping and the ring
    /// so that freeing the captured events is billed to this layer.
    fn of(
        compiled: Compiled,
        report: &Report,
        ring: Arc<RingBufferSink>,
        tech: &Technology,
    ) -> Self {
        let dropped = ring.dropped();
        let events = ring.events();
        let spec = compiled.price_spec(tech);
        let ticks = report.reference_ticks();
        let ledger = attribute(&events, &spec, ticks);
        let bottleneck = bottlenecks(&events, &spec, ticks);
        Analysis {
            attributed_j: ledger.total_j(),
            report_j: compiled.energy_j(report, tech),
            events: events.len() as u64,
            unpriced: ledger.unpriced_events,
            dropped,
            binding_utilization: bottleneck.binding_utilization,
            headroom_ticks: bottleneck.headroom_ticks_per_hyperperiod,
        }
    }

    /// Zero dropped and unpriced events, and attributed energy within
    /// [`ENERGY_TOLERANCE`] of the report-counter energy.
    pub fn check(&self) -> Result<(), String> {
        if self.dropped > 0 {
            return Err(format!("capture ring dropped {} events", self.dropped));
        }
        if self.unpriced > 0 {
            return Err(format!("{} events could not be priced", self.unpriced));
        }
        let gap = (self.attributed_j - self.report_j).abs();
        if !gap.is_finite() || gap > ENERGY_TOLERANCE * self.report_j.abs() {
            return Err(format!(
                "attributed energy {} J is not within {ENERGY_TOLERANCE} of the report's {} J",
                self.attributed_j, self.report_j
            ));
        }
        Ok(())
    }

    fn digest(&self, digest: &mut Digest) {
        digest.add_f64(self.attributed_j);
        digest.add_f64(self.report_j);
        digest.add(self.events);
        digest.add_f64(self.binding_utilization);
        digest.add(self.headroom_ticks);
    }
}

/// 64-bit FNV-1a over the little-endian bytes of every value added.
pub struct Digest(u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in one value.
    pub fn add(&mut self, value: u64) {
        self.add_bytes(&value.to_le_bytes());
    }

    fn add_all(&mut self, values: &[u64]) {
        self.add(values.len() as u64);
        for &v in values {
            self.add(v);
        }
    }

    fn add_f64(&mut self, value: f64) {
        self.add(value.to_bits());
    }

    fn add_str(&mut self, value: &str) {
        self.add(value.len() as u64);
        self.add_bytes(value.as_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }

    fn outcome(&self, sim_cycles: u64, verdict: &'static str) -> Outcome {
        Outcome {
            sim_cycles,
            digest: self.0,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short DDC run, captured and analyzed as a design-sweep request is.
    fn ddc_analysis(tech: &Technology) -> Analysis {
        let reference = reference_graph(Application::Ddc);
        let ring = Arc::new(RingBufferSink::new(RING_CAPACITY));
        let options = MapperOptions {
            iterations: 4,
            iteration_rate_hz: reference.iteration_rate_hz,
            tier: ExecutionTier::Fast,
            trace: Trace::to(ring.clone()),
            ..MapperOptions::default()
        };
        let mut compiled = Compiled::new(&reference.graph, &reference.mapping, &options)
            .expect("the DDC reference mapping compiles");
        let report = compiled.execute().expect("the DDC reference mapping runs");
        assert!(report.firings_exact());
        Analysis::of(compiled, &report, ring, tech)
    }

    #[test]
    fn an_honest_analysis_passes() {
        let analysis = ddc_analysis(&Technology::isca2004());
        assert!(analysis.events > 0);
        assert_eq!(analysis.check(), Ok(()));
    }

    #[test]
    fn energy_off_by_one_percent_fails_the_check() {
        let mut analysis = ddc_analysis(&Technology::isca2004());
        analysis.attributed_j *= 1.01;
        assert!(analysis.check().is_err());
    }

    #[test]
    fn dropped_or_unpriced_events_fail_the_check() {
        let honest = ddc_analysis(&Technology::isca2004());
        let dropped = Analysis {
            dropped: 1,
            ..honest
        };
        let unpriced = Analysis {
            unpriced: 1,
            ..honest
        };
        assert!(dropped.check().is_err());
        assert!(unpriced.check().is_err());
    }

    #[test]
    fn one_degradation_point_must_be_honest() {
        let point = synchroscalar::explorer::DegradationPoint {
            label: "column 0".to_owned(),
            tiles_lost: 4,
            splits_lost: 0,
            rate_num: 1,
            rate_den: 2,
            rate_hz: 50.0,
            power_mw: 10.0,
            tiles_used: 8,
            feasible: true,
        };
        let curve = |point| DegradationCurve {
            full_rate_hz: 100.0,
            points: vec![point],
        };
        let rung = RATE_LADDER.iter().position(|&r| r == (1, 2)).unwrap() as u64 + 1;
        assert_eq!(check_degradation(&curve(point.clone())), Ok(rung));
        let off_ladder = synchroscalar::explorer::DegradationPoint {
            rate_num: 5,
            rate_den: 7,
            ..point.clone()
        };
        assert!(check_degradation(&curve(off_ladder)).is_err());
        let dishonest = synchroscalar::explorer::DegradationPoint {
            feasible: false,
            ..point
        };
        assert!(check_degradation(&curve(dishonest)).is_err());
    }
}
