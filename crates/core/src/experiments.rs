//! Regeneration of every table and figure in the paper's evaluation
//! (Section 5).  Each function returns structured data; the `bench` crate's
//! binaries print them in the paper's row/series format, and
//! `EXPERIMENTS.md` records paper-versus-measured values.

use crate::mapper::{self, MapperOptions};
use crate::pipeline::{
    evaluate_application, evaluate_voltage_scaling, savings_percent, try_evaluate_application,
    ApplicationReport, EvaluationOptions,
};
use synchro_apps::{
    deep_pipeline, reference_graph, Application, ApplicationProfile, DEEP_PIPELINE_RATE_HZ,
};
use synchro_baselines::{table3_reference_rows, Platform, PlatformKind};
use synchro_explore::{
    evaluate_mapping, explore, explore_board, explore_degraded, explore_degraded_board,
    BoardSearch, CommSpec, DegradationCurve, ExplorerConfig, ResourceLoss,
};
use synchro_power::{
    AreaModel, BusGeometry, ColumnActivity, ColumnPower, CriticalPath, InterconnectModel,
    LeakageModel, SimdDouArea, SlotActivity, Technology, TileArea, VfCurve,
};
use synchro_sdf::{FaultSpec, SdfGraph};
use synchro_trace::analyze::{self, RejectionLedger};
use synchro_trace::{RingBufferSink, Trace};

use std::sync::Arc;

/// One point of the Figure 5 voltage/frequency curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Maximum operating frequency at a 20-FO4 critical path (MHz).
    pub frequency_fo4_20: f64,
    /// Maximum operating frequency at a 15-FO4 critical path (MHz).
    pub frequency_fo4_15: f64,
}

/// Figure 5: sweep the supply voltage from 0.62 V to 2.12 V and report the
/// 15- and 20-FO4 operating frequencies.
pub fn figure5(tech: &Technology, points: usize) -> Vec<VfPoint> {
    let c20 = VfCurve::with_critical_path(tech, CriticalPath::Fo4_20);
    let c15 = VfCurve::with_critical_path(tech, CriticalPath::Fo4_15);
    c20.sweep(0.62, 2.12, points)
        .into_iter()
        .map(|(v, f20)| VfPoint {
            voltage: v,
            frequency_fo4_20: f20,
            frequency_fo4_15: c15.interpolate(v),
        })
        .collect()
}

/// Table 1 rows as (parameter, value, source) strings.
pub fn table1(tech: &Technology) -> Vec<(String, String, String)> {
    vec![
        (
            "Technology".into(),
            format!("{} nm", tech.feature_nm),
            "Table 1".into(),
        ),
        (
            "Minimum Voltage".into(),
            format!("{} V", tech.min_voltage),
            "Blackfin DSP".into(),
        ),
        (
            "Maximum Voltage".into(),
            format!("{} V", tech.max_voltage),
            "Estimated (BPTM)".into(),
        ),
        (
            "Threshold Voltage".into(),
            format!("{} V", tech.threshold_voltage),
            "BPTM".into(),
        ),
        (
            "Max Frequency".into(),
            format!("{} MHz", tech.max_frequency_mhz),
            "SPICE substitute (VF curve)".into(),
        ),
        (
            "Tile Power".into(),
            format!("{} mW/MHz", tech.tile_power_mw_per_mhz),
            "Synthesis estimate".into(),
        ),
        (
            "Tile Size".into(),
            format!("{} mm^2", tech.tile_area_mm2),
            "Section 4.6".into(),
        ),
        (
            "Wire Cap.".into(),
            format!("{} fF/mm", tech.wire_cap_ff_per_mm),
            "The Future of Wires".into(),
        ),
        (
            "Leakage / tile".into(),
            format!("{} mA", tech.leakage_ma_per_tile),
            "Section 4.4".into(),
        ),
    ]
}

/// Named area rows: (component, area in µm²).
pub type AreaRows = Vec<(String, f64)>;

/// Table 2 rows: (component, area in µm²) for the tile and the SIMD
/// controller + DOU.
pub fn table2() -> (AreaRows, AreaRows) {
    let tile = TileArea::isca2004();
    let ctrl = SimdDouArea::isca2004();
    (
        tile.components()
            .iter()
            .map(|c| (c.name.to_owned(), c.area_um2))
            .collect(),
        ctrl.components()
            .iter()
            .map(|c| (c.name.to_owned(), c.area_um2))
            .collect(),
    )
}

/// One Synchroscalar row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Application name.
    pub application: String,
    /// Platform name ("Synchroscalar" for our rows).
    pub platform: String,
    /// Platform class.
    pub kind: PlatformKind,
    /// Area in mm² when known.
    pub area_mm2: Option<f64>,
    /// Power in mW.
    pub power_mw: f64,
    /// Note string.
    pub notes: String,
}

/// Table 3: the Synchroscalar rows (computed by the pipeline) followed by
/// the published reference platforms.
pub fn table3(tech: &Technology) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for app in [
        Application::Ddc,
        Application::StereoVision,
        Application::Wifi80211a,
        Application::Mpeg4Qcif,
        Application::Mpeg4Cif,
    ] {
        let profile = ApplicationProfile::of(app);
        let report = evaluate_application(&profile, tech, &EvaluationOptions::default());
        rows.push(Table3Row {
            application: profile.application.name().to_owned(),
            platform: "Synchroscalar".to_owned(),
            kind: PlatformKind::Synchroscalar,
            area_mm2: Some(report.area_mm2()),
            power_mw: report.total_mw(),
            notes: format!("Programmable, {}", profile.throughput),
        });
    }
    for p in table3_reference_rows() {
        rows.push(Table3Row {
            application: p.application.to_owned(),
            platform: p.name.to_owned(),
            kind: p.kind,
            area_mm2: p.area_mm2,
            power_mw: p.power_mw,
            notes: p.notes.to_owned(),
        });
    }
    rows
}

/// The headline ratios of Table 3 / the abstract: how far Synchroscalar is
/// from the best ASIC, and how much better it is than the rate-normalised
/// DSP, for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyRatios {
    /// Synchroscalar power divided by the best (lowest-power) ASIC.
    pub vs_asic: f64,
    /// Rate-normalised DSP power divided by Synchroscalar power.
    pub vs_dsp: f64,
}

/// Compute the ASIC / DSP efficiency ratios for one application.
pub fn efficiency_ratios(tech: &Technology, app: Application) -> Option<EfficiencyRatios> {
    let profile = ApplicationProfile::of(app);
    let report = evaluate_application(&profile, tech, &EvaluationOptions::default());
    let references: Vec<Platform> = table3_reference_rows()
        .into_iter()
        .filter(|p| p.application == profile.application.name())
        .collect();
    let best_asic = references
        .iter()
        .filter(|p| matches!(p.kind, PlatformKind::Asic | PlatformKind::Asip))
        .map(|p| p.power_mw / p.rate_fraction.max(1e-9))
        .fold(f64::INFINITY, f64::min);
    let dsp = references
        .iter()
        .filter(|p| p.name.contains("Blackfin"))
        .map(Platform::rate_normalized_power_mw)
        .fold(f64::INFINITY, f64::min);
    if !best_asic.is_finite() || !dsp.is_finite() {
        return None;
    }
    Some(EfficiencyRatios {
        vs_asic: report.total_mw() / best_asic,
        vs_dsp: dsp / report.total_mw(),
    })
}

/// One Table 4 row: a block's operating point and power under both voltage
/// policies.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Application name.
    pub application: String,
    /// Algorithm block name.
    pub algorithm: String,
    /// Tiles assigned.
    pub tiles: u32,
    /// Frequency in MHz.
    pub frequency_mhz: f64,
    /// Per-column voltage in volts.
    pub voltage: f64,
    /// Power with per-column voltage scaling (mW).
    pub power_mw: f64,
    /// Power with a single application-wide voltage (mW).
    pub single_voltage_mw: f64,
}

impl Table4Row {
    /// Percentage power saved by per-column voltages for this block.
    pub fn savings_percent(&self) -> f64 {
        if self.single_voltage_mw <= 0.0 {
            return 0.0;
        }
        (1.0 - self.power_mw / self.single_voltage_mw) * 100.0
    }
}

/// Table 4: every application's per-block rows plus totals.
pub fn table4(tech: &Technology) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for app in Application::all() {
        let profile = ApplicationProfile::of(app);
        let (per_column, single) =
            evaluate_voltage_scaling(&profile, tech, &EvaluationOptions::default());
        for (pc, sv) in per_column.blocks.iter().zip(&single.blocks) {
            rows.push(Table4Row {
                application: profile.application.name().to_owned(),
                algorithm: pc.name.clone(),
                tiles: pc.tiles,
                frequency_mhz: pc.frequency_mhz,
                voltage: pc.voltage,
                power_mw: pc.total_mw(),
                single_voltage_mw: sv.total_mw(),
            });
        }
        rows.push(Table4Row {
            application: profile.application.name().to_owned(),
            algorithm: "TOTAL".to_owned(),
            tiles: per_column.total_tiles(),
            frequency_mhz: 0.0,
            voltage: 0.0,
            power_mw: per_column.total_mw(),
            single_voltage_mw: single.total_mw(),
        });
    }
    rows
}

/// One bar of Figure 6: application power with and without per-column
/// voltage scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6Bar {
    /// Application name.
    pub application: String,
    /// Power with per-column voltage scaling (mW).
    pub scaled_mw: f64,
    /// Additional power without voltage scaling (mW).
    pub additional_unscaled_mw: f64,
    /// Savings percentage.
    pub savings_percent: f64,
}

/// Figure 6: per-application power with vs without voltage scaling.
pub fn figure6(tech: &Technology) -> Vec<Figure6Bar> {
    Application::all()
        .into_iter()
        .map(|app| {
            let profile = ApplicationProfile::of(app);
            let (per_column, single) =
                evaluate_voltage_scaling(&profile, tech, &EvaluationOptions::default());
            Figure6Bar {
                application: profile.application.name().to_owned(),
                scaled_mw: per_column.total_mw(),
                additional_unscaled_mw: (single.total_mw() - per_column.total_mw()).max(0.0),
                savings_percent: savings_percent(&per_column, &single),
            }
        })
        .collect()
}

/// One bar of Figure 7: an application at one parallelisation level, split
/// into compute power and interconnect + leakage overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure7Bar {
    /// Application name.
    pub application: String,
    /// Total tiles in this variant.
    pub tiles: u32,
    /// Compute (tile) power in mW.
    pub compute_mw: f64,
    /// Interconnect + leakage power in mW.
    pub overhead_mw: f64,
    /// Whether every block fits the supply envelope at this parallelism.
    pub feasible: bool,
}

impl Figure7Bar {
    /// Total power of the bar.
    pub fn total_mw(&self) -> f64 {
        self.compute_mw + self.overhead_mw
    }
}

/// Figure 7: sweep each application over its studied parallelisation
/// levels.
pub fn figure7(tech: &Technology) -> Vec<Figure7Bar> {
    figure7_with_options(tech, &EvaluationOptions::default())
}

/// Figure 7 with overridden evaluation options (used by the leakage
/// sensitivity sweeps of Figures 9 and 10).
pub fn figure7_with_options(tech: &Technology, options: &EvaluationOptions) -> Vec<Figure7Bar> {
    let mut bars = Vec::new();
    for app in Application::all() {
        let profile = ApplicationProfile::of(app);
        for &total in &profile.parallelization_variants {
            let allocation = profile.allocation_for_total(total);
            let tiles: u32 = allocation.iter().sum();
            let report = try_evaluate_application(
                &profile,
                tech,
                &EvaluationOptions {
                    allocation: Some(allocation),
                    ..options.clone()
                },
            )
            .expect("allocation_for_total covers every block of its own profile");
            bars.push(Figure7Bar {
                application: profile.application.name().to_owned(),
                tiles,
                compute_mw: report.compute_mw(),
                overhead_mw: report.overhead_mw(),
                feasible: report.feasible(),
            });
        }
    }
    bars
}

/// One point of Figure 8: the Viterbi ACS mapped onto a tile count with a
/// given bus width.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure8Point {
    /// Tiles running the ACS trellis.
    pub tiles: u32,
    /// Bus width in bits.
    pub bus_width_bits: u32,
    /// Chip area of the configuration in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// Figure 8: power/area of the Viterbi ACS for 8/16/32 tiles across bus
/// widths from 32 to 1024 bits.
///
/// Narrower buses move fewer words per cycle, so the tiles stall waiting
/// for path-metric exchanges and the column must run (and be supplied)
/// faster; wider buses trade area for lower frequency and voltage.
pub fn figure8(tech: &Technology) -> Vec<Figure8Point> {
    let wifi = ApplicationProfile::of(Application::Wifi80211a);
    let acs = wifi
        .algorithms
        .iter()
        .find(|a| a.name == "Viterbi ACS")
        .expect("profile has a Viterbi ACS block");
    // Split the reference operating point into compute and communication
    // components: at the reference 16 tiles / 256-bit bus, the bus moves
    // the ACS's word traffic at 8 words per cycle per column.
    let ref_tiles = acs.reference_tiles;
    let ref_columns = f64::from(ref_tiles.div_ceil(tech.tiles_per_column));
    let ref_splits = 8.0;
    let words_per_us = acs.reference_bus_words_per_second / 1e6;
    let ref_comm_mhz = words_per_us / (ref_splits * ref_columns);
    let compute_work_mhz_tiles =
        (acs.reference_frequency_mhz - ref_comm_mhz) * f64::from(ref_tiles);

    let area = AreaModel::isca2004();
    let curve = VfCurve::fo4_20(tech);
    let leakage = LeakageModel::new(tech);
    let mut points = Vec::new();
    for &tiles in &[8u32, 16, 32] {
        for &width in &[32u32, 64, 128, 256, 512, 1024] {
            let splits = f64::from(width / 32);
            let columns = f64::from(tiles.div_ceil(tech.tiles_per_column));
            let comm_mhz = words_per_us / (splits * columns);
            let frequency = compute_work_mhz_tiles / f64::from(tiles) + comm_mhz;
            let (voltage, _within) = curve.voltage_for_frequency_extrapolated(frequency);
            let bus_tech = tech.clone().with_bus_width(width);
            let activity = ColumnActivity {
                tiles,
                frequency_mhz: frequency,
                voltage,
                bus_words_per_second: acs.reference_bus_words_per_second,
                bus_length_mm: tech.column_bus_length_mm,
            };
            let power = ColumnPower::estimate_with(
                &synchro_power::TilePowerModel::new(&bus_tech),
                &synchro_power::InterconnectModel::new(&bus_tech),
                &leakage,
                &bus_tech,
                &activity,
            );
            points.push(Figure8Point {
                tiles,
                bus_width_bits: width,
                area_mm2: area.chip_area_with_bus_mm2(tiles, width / 32),
                power_mw: power.total_mw(),
            });
        }
    }
    points
}

/// One curve point of Figures 9/10: an application variant's total power at
/// a given per-tile leakage current.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakagePoint {
    /// Application name.
    pub application: String,
    /// Tiles in the variant.
    pub tiles: u32,
    /// Leakage current per tile in mA.
    pub leakage_ma_per_tile: f64,
    /// Total power in mW.
    pub power_mw: f64,
}

/// Figures 9 and 10: sweep per-tile leakage over the paper's nine points
/// for every parallelisation variant of every application.  Figure 9 plots
/// the DDC and 802.11a subsets, Figure 10 the MPEG-4 and Stereo Vision
/// subsets.
pub fn leakage_sensitivity(tech: &Technology) -> Vec<LeakagePoint> {
    let mut points = Vec::new();
    for &leak in LeakageModel::figure9_sweep_points() {
        let bars = figure7_with_options(
            tech,
            &EvaluationOptions {
                leakage_ma_per_tile: Some(leak),
                ..EvaluationOptions::default()
            },
        );
        for bar in bars {
            points.push(LeakagePoint {
                application: bar.application.clone(),
                tiles: bar.tiles,
                leakage_ma_per_tile: leak,
                power_mw: bar.total_mw(),
            });
        }
    }
    points
}

/// One point of the Section 5.5 tile-power sensitivity analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// Tile power `U` in mW/MHz.
    pub tile_power_mw_per_mhz: f64,
    /// Application name.
    pub application: String,
    /// Total power at that `U` (mW).
    pub power_mw: f64,
}

/// Section 5.5: sweep the tile power parameter `U` from 0.05 to
/// 0.2 mW/MHz and report every application's total power.
pub fn tile_power_sensitivity(tech: &Technology) -> Vec<SensitivityPoint> {
    let mut out = Vec::new();
    for &u in &[0.05, 0.07, 0.1, 0.15, 0.2] {
        for app in Application::all() {
            let profile = ApplicationProfile::of(app);
            let report = evaluate_application(
                &profile,
                tech,
                &EvaluationOptions {
                    tile_power_mw_per_mhz: Some(u),
                    ..EvaluationOptions::default()
                },
            );
            out.push(SensitivityPoint {
                tile_power_mw_per_mhz: u,
                application: profile.application.name().to_owned(),
                power_mw: report.total_mw(),
            });
        }
    }
    out
}

/// One row of the automatic-mapping summary: how the explorer's result at
/// the reference tile budget compares with the hand-built Table 4 mapping
/// for one application.
#[derive(Debug, Clone)]
pub struct AutoMapRow {
    /// Application name.
    pub application: String,
    /// Reference (Table 4) tile budget the search was given.
    pub tiles: u32,
    /// Power of the auto-derived single-actor-per-column mapping at the
    /// reference budget, under the explorer's cost model (mW).
    pub auto_power_mw: f64,
    /// Power of the hand-built reference mapping under the same cost
    /// model (mW).
    pub reference_power_mw: f64,
    /// Best power when the search may also fuse adjacent actors into one
    /// column group (mW); at most `auto_power_mw`.
    pub fused_power_mw: f64,
    /// Largest relative disagreement between the auto-mapped per-column
    /// frequencies and the published Table 4 frequencies.
    pub max_frequency_error: f64,
    /// Whether the auto-derived winner compiled, executed with exact
    /// firing counts, and cross-validated against the analytic
    /// [`ApplicationReport`].
    pub cross_validated: bool,
}

/// Auto-map every paper application at its Table 4 tile budget and
/// compare the result with the hand-built reference mapping: the
/// graph → auto-map → chip flow the explorer subsystem adds, run end to
/// end (search, compile, execute, cross-validate) for the whole suite.
pub fn auto_mapping_summary(tech: &Technology) -> Vec<AutoMapRow> {
    let mut rows = Vec::new();
    for app in Application::all() {
        let profile = ApplicationProfile::of(app);
        let reference = reference_graph(app);
        let budget = profile.reference_tiles();
        let config = ExplorerConfig::new(reference.iteration_rate_hz, budget)
            .with_tech(tech.clone())
            .single_actor_columns();

        let exploration = explore(&reference.graph, &config).expect("reference graphs explore");
        let winner = exploration
            .solution_for_tiles(budget)
            .unwrap_or(&exploration.best)
            .clone();
        let reference_cost = evaluate_mapping(&reference.graph, &reference.mapping, &config)
            .expect("reference mappings are well-formed");

        let fused = explore(
            &reference.graph,
            &ExplorerConfig::new(reference.iteration_rate_hz, budget).with_tech(tech.clone()),
        )
        .expect("reference graphs explore");

        let max_frequency_error = winner
            .frequencies_mhz()
            .iter()
            .zip(&profile.algorithms)
            .map(|(freq, algorithm)| {
                (freq - algorithm.reference_frequency_mhz).abs() / algorithm.reference_frequency_mhz
            })
            .fold(0.0, f64::max);

        let cross_validated = {
            let options = MapperOptions {
                iterations: 2,
                iteration_rate_hz: reference.iteration_rate_hz,
                ..MapperOptions::default()
            };
            let report = try_evaluate_application(&profile, tech, &EvaluationOptions::default())
                .expect("default options carry no allocation override");
            mapper::compile_explored(&reference.graph, &winner, &options)
                .and_then(|mut compiled| {
                    let execution = compiled.execute()?;
                    Ok(mapper::cross_validate(&compiled, &execution, &report))
                })
                .map(|validation| validation.agrees_within(1e-9))
                .unwrap_or(false)
        };

        rows.push(AutoMapRow {
            application: profile.application.name().to_owned(),
            tiles: budget,
            auto_power_mw: winner.power_mw,
            reference_power_mw: reference_cost.power_mw,
            fused_power_mw: fused.best.power_mw,
            max_frequency_error,
            cross_validated,
        });
    }
    rows
}

/// One row of the communication-schedule summary: an application's
/// reference mapping compiled to a static TDM schedule over the reference
/// horizontal bus, with the slot-activity energy calibration next to the
/// rate-based model.
#[derive(Debug, Clone)]
pub struct RouteSummaryRow {
    /// Application name.
    pub application: String,
    /// Columns (placements) of the reference mapping.
    pub columns: usize,
    /// Bus cycles per graph iteration (the TDM period).
    pub period: u64,
    /// Slots carrying a word per period.
    pub occupied_slots: u64,
    /// Scheduled-but-idle slots per period.
    pub idle_slots: u64,
    /// Occupied fraction of the frame.
    pub utilization: f64,
    /// Horizontal-bus power from the slot-activity path (mW), at the
    /// chip's maximum column voltage.
    pub slot_power_mw: f64,
    /// The same traffic through the rate-based model (mW) — the
    /// calibration reference the slot path must reproduce when idle slots
    /// are free.
    pub rate_power_mw: f64,
    /// Whether the compiled schedule replayed conflict-free through the
    /// segment-group rule.
    pub conflict_free: bool,
}

/// Compile every reference profile's mapping to a TDM route schedule at
/// the reference bus configuration (one split, 400 MHz) and summarise the
/// frame: the "communication scheduling" counterpart of
/// [`auto_mapping_summary`], pinning that all paper operating points stay
/// schedulable and the slot-activity power path matches the rate model.
pub fn route_schedule_summary(tech: &Technology) -> Vec<RouteSummaryRow> {
    let mut rows = Vec::new();
    for app in Application::all() {
        let reference = reference_graph(app);
        let options = MapperOptions {
            iterations: 1,
            iteration_rate_hz: reference.iteration_rate_hz,
            tech: tech.clone(),
            ..MapperOptions::default()
        };
        let compiled = mapper::compile(&reference.graph, &reference.mapping, &options)
            .expect("reference mappings schedule at the reference bus configuration");
        let route = compiled.route();
        let conflict_free = route.validate().is_ok();
        let voltage = compiled
            .plans()
            .iter()
            .map(|p| p.voltage)
            .fold(0.0, f64::max);
        let geometry = BusGeometry::horizontal(tech);
        let model = InterconnectModel::new(tech);
        let slots = SlotActivity::per_iteration(
            route.occupied_slots(),
            route.idle_slots(),
            reference.iteration_rate_hz,
        );
        rows.push(RouteSummaryRow {
            application: ApplicationProfile::of(app).application.name().to_owned(),
            columns: compiled.plans().len(),
            period: route.spec().period(),
            occupied_slots: route.occupied_slots(),
            idle_slots: route.idle_slots(),
            utilization: route.utilization(),
            slot_power_mw: model.power_mw_slots(&geometry, &slots, voltage),
            rate_power_mw: model.power_mw(
                &geometry,
                route.occupied_slots() as f64 * reference.iteration_rate_hz,
                voltage,
            ),
            conflict_free,
        });
    }
    rows
}

/// One row of the trace-scale simulation summary: a reference application
/// executed end to end for `frames` graph iterations (a million-frame
/// trace, not a handful of smoke iterations) on the fast execution tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceScaleRow {
    /// Application name.
    pub application: String,
    /// Graph iterations (frames/symbols/samples) executed.
    pub frames: u64,
    /// Reference ticks the run consumed.
    pub reference_ticks: u64,
    /// Reference ticks per graph iteration.
    pub hyperperiod: u64,
    /// Column clock cycles summed over all columns.
    pub column_cycles: u64,
    /// Words moved across the horizontal bus.
    pub horizontal_words: u64,
    /// Occupied fraction of the scheduled TDM slots (0 when the schedule
    /// reserved none).
    pub bus_utilization: f64,
    /// Whether measured firing counts matched the repetition vector
    /// exactly over the whole trace.
    pub firings_exact: bool,
}

/// Errors raised by the trace-scale entry points — the structured
/// counterpart of the panics the eager wrappers keep (mirrors the
/// [`crate::pipeline::PipelineError`] `try_` pattern).
#[derive(Debug)]
pub enum TraceScaleError {
    /// The application's reference mapping failed to compile or execute at
    /// the requested iteration rate (typically: the TDM frame implied by
    /// the rate is too small for the per-iteration traffic).
    Unschedulable {
        /// Application name.
        application: String,
        /// The iteration rate the mapping was compiled for.
        iteration_rate_hz: f64,
        /// The underlying mapper failure.
        source: mapper::MapperError,
    },
}

impl std::fmt::Display for TraceScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceScaleError::Unschedulable {
                application,
                iteration_rate_hz,
                source,
            } => write!(
                f,
                "{application} is unschedulable at {iteration_rate_hz} iterations/s: {source}"
            ),
        }
    }
}

impl std::error::Error for TraceScaleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceScaleError::Unschedulable { source, .. } => Some(source),
        }
    }
}

/// Execute one application's reference mapping for `frames` graph
/// iterations at `iteration_rate_hz` on the fast tier and summarise the
/// trace.
///
/// # Errors
///
/// [`TraceScaleError::Unschedulable`] when the mapping cannot be compiled
/// or executed at that rate.
pub fn try_trace_scale_row(
    tech: &Technology,
    app: Application,
    iteration_rate_hz: f64,
    frames: u64,
) -> Result<TraceScaleRow, TraceScaleError> {
    let application = ApplicationProfile::of(app).application.name().to_owned();
    let reference = reference_graph(app);
    let options = MapperOptions {
        iterations: frames,
        iteration_rate_hz,
        tech: tech.clone(),
        tier: mapper::ExecutionTier::Fast,
        ..MapperOptions::default()
    };
    let wrap = |source| TraceScaleError::Unschedulable {
        application: application.clone(),
        iteration_rate_hz,
        source,
    };
    let mut compiled =
        mapper::compile(&reference.graph, &reference.mapping, &options).map_err(wrap)?;
    let report = compiled.execute().map_err(wrap)?;
    Ok(TraceScaleRow {
        application,
        frames,
        reference_ticks: report.reference_ticks,
        hyperperiod: report.hyperperiod,
        column_cycles: report.column_cycles.iter().sum(),
        horizontal_words: report.simulated_horizontal_words,
        bus_utilization: if report.scheduled_bus_slots == 0 {
            0.0
        } else {
            report.occupied_bus_slots as f64 / report.scheduled_bus_slots as f64
        },
        firings_exact: report.firings_exact(),
    })
}

/// Trace-scale summary of every reference application at its reference
/// iteration rate.
///
/// # Errors
///
/// Propagates the first [`TraceScaleError`] — a reference application
/// failing to schedule at its own reference rate indicates a broken model.
pub fn try_trace_scale_summary(
    tech: &Technology,
    frames: u64,
) -> Result<Vec<TraceScaleRow>, TraceScaleError> {
    Application::all()
        .into_iter()
        .map(|app| {
            let rate = reference_graph(app).iteration_rate_hz;
            try_trace_scale_row(tech, app, rate, frames)
        })
        .collect()
}

/// Eager wrapper of [`try_trace_scale_summary`].
///
/// # Panics
///
/// Panics when a reference application fails to schedule at its own
/// reference rate (a broken model, not a data-dependent condition).
pub fn trace_scale_summary(tech: &Technology, frames: u64) -> Vec<TraceScaleRow> {
    try_trace_scale_summary(tech, frames)
        .expect("reference applications schedule at their reference rates")
}

/// One row of the multi-chip board summary: the 24-stage deep pipeline
/// ([`deep_pipeline`]) attempted at one board size, end to end through
/// explorer → mapper → board simulator.
#[derive(Debug, Clone)]
pub struct BoardSummaryRow {
    /// Chips the attempt was allowed to use.
    pub max_chips: usize,
    /// Chips the winning partition actually used (0 when rejected).
    pub chips: usize,
    /// Why the attempt was rejected (`None` when the board is feasible).
    pub rejection: Option<String>,
    /// Total tiles across the board.
    pub total_tiles: u32,
    /// Explorer compute power summed over every chip (mW).
    pub compute_power_mw: f64,
    /// Words per graph iteration crossing the chip-to-chip bridges.
    pub bridge_words_per_iteration: u64,
    /// Occupied bridge slots per TDM period.
    pub bridge_occupied_slots: u64,
    /// Scheduled-but-idle bridge slots per period.
    pub bridge_idle_slots: u64,
    /// Occupied fraction of the bridge frame.
    pub bridge_utilization: f64,
    /// Bridge transfer power from the slot-activity path (mW) — the
    /// inter-chip traffic priced into the board's budget.
    pub bridge_power_mw: f64,
    /// Whether the simulated board fired exactly as the repetition vector
    /// predicts.
    pub firings_exact: bool,
}

fn rejected_board_row(max_chips: usize, chips: usize, why: String) -> BoardSummaryRow {
    BoardSummaryRow {
        max_chips,
        chips,
        rejection: Some(why),
        total_tiles: 0,
        compute_power_mw: 0.0,
        bridge_words_per_iteration: 0,
        bridge_occupied_slots: 0,
        bridge_idle_slots: 0,
        bridge_utilization: 0.0,
        bridge_power_mw: 0.0,
        firings_exact: false,
    }
}

/// The multi-chip board experiment: the 24-stage deep pipeline is too
/// communication-heavy for one chip (46 cross words against the reference
/// 25-slot TDM frame — the single-chip row records the router's
/// rejection), but partitions feasibly across 2–4 chips.  Each feasible
/// row runs the partition end to end — board exploration, board
/// compilation, simulated execution on the fast tier — and prices the
/// bridge traffic through the slot-activity path.
pub fn board_summary(tech: &Technology) -> Vec<BoardSummaryRow> {
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let options = MapperOptions {
        iterations: 8,
        iteration_rate_hz: rate,
        tech: tech.clone(),
        tier: mapper::ExecutionTier::Fast,
        ..MapperOptions::default()
    };
    let comm = CommSpec::from_clock(options.bus_splits as u32, options.bus_frequency_hz, rate);
    let mut rows = Vec::new();

    // The single-chip row: the tile/power search succeeds, but the
    // router rejects the mapping — the per-iteration traffic outgrows
    // the TDM frame.
    let single = explore(
        &graph,
        &ExplorerConfig::new(rate, 64).single_actor_columns(),
    )
    .expect("the single-chip tile search itself succeeds");
    let (realized, mapping) = single
        .best
        .realize(&graph)
        .expect("single-actor winners realize");
    rows.push(match mapper::compile(&realized, &mapping, &options) {
        Err(err) => rejected_board_row(1, 1, err.to_string()),
        Ok(_) => unreachable!("46 words cannot fit a 25-slot frame"),
    });

    let model = InterconnectModel::new(tech);
    for max_chips in 2..=4usize {
        let config = ExplorerConfig::new(rate, 40)
            .single_actor_columns()
            .with_comm(comm)
            .with_board(BoardSearch::new(max_chips));
        let exploration = match explore_board(&graph, &config) {
            Ok(e) => e,
            Err(err) => {
                rows.push(rejected_board_row(max_chips, 0, err.to_string()));
                continue;
            }
        };
        let mapping = exploration.mapping();
        let mut compiled = match mapper::compile_board(
            &graph,
            &mapping,
            &options,
            &mapper::BoardConfig::default(),
        ) {
            Ok(c) => c,
            Err(err) => {
                rows.push(rejected_board_row(
                    max_chips,
                    exploration.chip_count(),
                    err.to_string(),
                ));
                continue;
            }
        };
        let report = compiled
            .execute()
            .expect("explored boards execute at their own rate");
        let bridge = compiled.route().bridge();
        let slots = SlotActivity::per_iteration(bridge.occupied_slots(), bridge.idle_slots(), rate);
        rows.push(BoardSummaryRow {
            max_chips,
            chips: exploration.chip_count(),
            rejection: None,
            total_tiles: exploration.total_tiles(),
            compute_power_mw: exploration.total_power_mw(),
            bridge_words_per_iteration: compiled.bridge_words_per_iteration(),
            bridge_occupied_slots: bridge.occupied_slots(),
            bridge_idle_slots: bridge.idle_slots(),
            bridge_utilization: bridge.utilization(),
            bridge_power_mw: model
                .power_mw_bridge_slots(compiled.bridge_energy_pj_per_word(), &slots),
            firings_exact: report.firings_exact(),
        });
    }
    rows
}

/// One row of the degraded-mode summary: an application re-explored
/// with each of its reference columns' tile allocations excluded in
/// turn, walking the iteration rate down
/// [`synchro_explore::RATE_LADDER`] until a feasible remap exists (the
/// board row also severs a bridge direction).
#[derive(Debug, Clone)]
pub struct DegradedModeRow {
    /// Application (or board scenario) name.
    pub application: String,
    /// The undegraded target iteration rate (Hz).
    pub full_rate_hz: f64,
    /// Columns of the reference mapping (= curve points for the
    /// single-chip rows, one loss per column).
    pub columns: usize,
    /// One [`synchro_explore::DegradationPoint`] per loss, sorted by
    /// ascending tiles lost — monotone by construction of the ladder.
    pub curve: DegradationCurve,
    /// Whether [`mapper::compile`] (or `compile_board` for the board
    /// row) rejected a mapping landing on the dead hardware with a
    /// structured fault error — the static half of the fault story.
    pub fault_rejected: bool,
}

/// Degraded-mode remapping across the suite: for each of the six
/// reference applications, lose each reference column's tile
/// allocation in turn and re-explore at the reference budget, walking
/// the rate ladder down until feasible; the final row degrades the
/// two-chip deep-pipeline board (largest per-chip column lost on every
/// chip, then the forward bridge direction severed).  Every row also
/// pins the static rejection: compiling the *unchanged* reference
/// mapping against a [`FaultSpec`] naming dead hardware it uses must
/// fail with a fault-class error, not silently run.
pub fn degraded_mode_summary(tech: &Technology) -> Vec<DegradedModeRow> {
    let mut rows = Vec::new();
    for app in Application::all() {
        let reference = reference_graph(app);
        let profile = ApplicationProfile::of(app);
        let budget = profile.reference_tiles();
        let config = ExplorerConfig::new(reference.iteration_rate_hz, budget)
            .with_tech(tech.clone())
            .single_actor_columns();
        let mut losses: Vec<ResourceLoss> = reference
            .mapping
            .placements()
            .iter()
            .enumerate()
            .map(|(column, p)| {
                ResourceLoss::column(
                    format!("column {column} failed ({} tiles)", p.tiles),
                    p.tiles,
                )
            })
            .collect();
        losses.sort_by_key(|l| l.tiles_lost);
        let curve =
            explore_degraded(&reference.graph, &config, &losses).expect("reference graphs explore");

        let fault_rejected = {
            let mut faults = FaultSpec::none();
            faults.fail_column(0, 0);
            let options = MapperOptions {
                iterations: 1,
                iteration_rate_hz: reference.iteration_rate_hz,
                tech: tech.clone(),
                faults,
                ..MapperOptions::default()
            };
            matches!(
                mapper::compile(&reference.graph, &reference.mapping, &options),
                Err(e) if e.is_fault()
            )
        };

        rows.push(DegradedModeRow {
            application: profile.application.name().to_owned(),
            full_rate_hz: reference.iteration_rate_hz,
            columns: reference.mapping.placements().len(),
            curve,
            fault_rejected,
        });
    }

    // The two-chip deep-pipeline board: same losses, board-level walker.
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let defaults = MapperOptions::default();
    let comm = CommSpec::from_clock(defaults.bus_splits as u32, defaults.bus_frequency_hz, rate);
    let config = ExplorerConfig::new(rate, 40)
        .with_tech(tech.clone())
        .single_actor_columns()
        .with_comm(comm)
        .with_board(BoardSearch::new(2));
    let healthy = explore_board(&graph, &config).expect("the deep pipeline partitions at 2 chips");
    let biggest_column = healthy
        .chips
        .iter()
        .flat_map(|c| c.solution.columns.iter().map(|col| col.tiles))
        .max()
        .unwrap_or(0);
    let losses = vec![
        ResourceLoss::column(
            format!("largest column failed ({biggest_column} tiles, every chip)"),
            biggest_column,
        ),
        ResourceLoss::bridge("bridge 0\u{2192}1 severed", 0),
    ];
    let curve =
        explore_degraded_board(&graph, &config, &losses).expect("board degradation explores");

    let fault_rejected = {
        let mut faults = FaultSpec::none();
        faults.fail_lane(0, 1);
        let options = MapperOptions {
            iterations: 1,
            iteration_rate_hz: rate,
            tech: tech.clone(),
            faults,
            ..MapperOptions::default()
        };
        matches!(
            mapper::compile_board(
                &graph,
                &healthy.mapping(),
                &options,
                &mapper::BoardConfig::default(),
            ),
            Err(e) if e.is_fault()
        )
    };

    rows.push(DegradedModeRow {
        application: format!("deep_pipeline ({} chips)", healthy.chip_count()),
        full_rate_hz: rate,
        columns: healthy.mapping().placements().len(),
        curve,
        fault_rejected,
    });
    rows
}

/// One row of the energy-attribution cross-check: a reference
/// application run with the trace substrate on, its captured event
/// stream priced through [`synchro_trace::analyze::attribute`], and the
/// total compared against the independent report-counter energy
/// ([`mapper::ReportEnergy`]).
#[derive(Debug, Clone)]
pub struct EnergyAttributionRow {
    /// Application name.
    pub application: String,
    /// Execution tier the run used (`"interpreted"` / `"fast"`).
    pub tier: &'static str,
    /// Event-priced total energy of the run, joules.
    pub attributed_j: f64,
    /// Report-counter total energy of the run, joules.
    pub report_j: f64,
    /// `|attributed − report| / report` (0 when both are 0).
    pub relative_error: f64,
    /// Average attributed power over the run, milliwatts.
    pub average_power_mw: f64,
    /// Label of the binding resource per the bottleneck analysis.
    pub binding: String,
    /// Utilization of the binding resource in `[0, 1]`.
    pub binding_utilization: f64,
    /// Reference ticks of deadline headroom per hyperperiod on the
    /// binding resource.
    pub headroom_ticks: u64,
    /// Simulation events the pricing spec could not bill (0 = every
    /// event attributed).
    pub unpriced_events: u64,
}

/// The energy-attribution experiment: every reference application, on
/// both execution tiers, compiled with a [`RingBufferSink`] installed,
/// executed, and its event stream priced against the compiled pricing
/// spec.  The acceptance pin — attributed total ≡ report-counter total
/// within 0.1 % — holds because both paths bill the same physical
/// counters (billed cycles, occupied slots) through the same models;
/// this function measures it rather than assuming it.
///
/// # Panics
///
/// Panics if a reference application fails to compile or execute, or if
/// the capture ring overflows (the rows would silently under-count).
pub fn energy_attribution_summary(tech: &Technology) -> Vec<EnergyAttributionRow> {
    let mut rows = Vec::new();
    for app in Application::all() {
        let reference = reference_graph(app);
        for (tier, tier_name) in [
            (mapper::ExecutionTier::Interpreted, "interpreted"),
            (mapper::ExecutionTier::Fast, "fast"),
        ] {
            let ring = Arc::new(RingBufferSink::new(1 << 22));
            let options = MapperOptions {
                iterations: 4,
                iteration_rate_hz: reference.iteration_rate_hz,
                tech: tech.clone(),
                tier,
                trace: Trace::to(ring.clone()),
                ..MapperOptions::default()
            };
            let mut compiled = mapper::compile(&reference.graph, &reference.mapping, &options)
                .expect("reference mappings compile");
            let report = compiled.execute().expect("reference mappings execute");
            assert_eq!(
                ring.dropped(),
                0,
                "capture ring overflowed; the attribution would under-count"
            );
            let events = ring.events();
            let spec = compiled.price_spec(tech);
            let ledger = analyze::attribute(&events, &spec, report.reference_ticks);
            let bottleneck = analyze::bottlenecks(&events, &spec, report.reference_ticks);
            let report_energy = compiled.execution_energy(&report, tech);
            let attributed_j = ledger.total_j();
            let report_j = report_energy.total_j();
            let relative_error = if report_j == 0.0 {
                if attributed_j == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (attributed_j - report_j).abs() / report_j
            };
            rows.push(EnergyAttributionRow {
                application: app.name().to_owned(),
                tier: tier_name,
                attributed_j,
                report_j,
                relative_error,
                average_power_mw: ledger.average_power_mw(),
                binding: bottleneck.binding.clone().unwrap_or_default(),
                binding_utilization: bottleneck.binding_utilization,
                headroom_ticks: bottleneck.headroom_ticks_per_hyperperiod,
                unpriced_events: ledger.unpriced_events,
            });
        }
    }
    rows
}

/// The aggregated answer to "why is this `(graph, rate, budget)` triple
/// infeasible?": the ranked rejection classes a [`RejectionLedger`]
/// collected across exploration, realization and compilation, plus the
/// rendered explanation.
#[derive(Debug, Clone)]
pub struct InfeasibilityExplanation {
    /// Whether the triple compiled after all (empty ledger, no story to
    /// tell).
    pub feasible: bool,
    /// Rejection classes, most frequent first.
    pub classes: Vec<synchro_trace::analyze::RejectionClass>,
    /// The rendered ranked explanation.
    pub explanation: String,
}

/// Explain why `(graph, rate_hz, tile_budget)` does — or does not —
/// map: run the explorer and (when it finds a candidate) the mapper with
/// a [`RejectionLedger`] installed as the trace sink, so every
/// structured rejection (router `PeriodOverflow`, explorer budget/comm
/// prunes, fault rejections) lands in one ranked ledger.
///
/// The paper-pinned case: the 24-stage deep pipeline on one chip
/// explores fine but dies in the router with `PeriodOverflow` — 46
/// cross words against the reference 25-slot TDM frame — and that is
/// exactly the dominant class this report names.
pub fn explain_infeasibility(
    graph: &SdfGraph,
    rate_hz: f64,
    tile_budget: u32,
) -> InfeasibilityExplanation {
    let ledger = Arc::new(RejectionLedger::new());
    let trace = Trace::to(ledger.clone());
    let config = ExplorerConfig::new(rate_hz, tile_budget)
        .single_actor_columns()
        .with_trace(trace.clone());
    let feasible = match explore(graph, &config) {
        Err(_) => false,
        Ok(exploration) => match exploration.best.realize(graph) {
            Err(err) => {
                // Realization failures do not flow through a traced
                // callee; mirror them into the ledger by hand.
                trace.emit(|| {
                    synchro_trace::RouteRejectEvent {
                        code: err.code(),
                        detail: err.to_string(),
                    }
                    .into()
                });
                false
            }
            Ok((realized, mapping)) => {
                let options = MapperOptions {
                    iterations: 1,
                    iteration_rate_hz: rate_hz,
                    trace: trace.clone(),
                    ..MapperOptions::default()
                };
                mapper::compile(&realized, &mapping, &options).is_ok()
            }
        },
    };
    let title = format!(
        "why the mapping {} at {:.0} Hz within {} tiles",
        if feasible { "succeeds" } else { "fails" },
        rate_hz,
        tile_budget
    );
    InfeasibilityExplanation {
        feasible,
        classes: ledger.classes(),
        explanation: ledger.explain(&title),
    }
}

/// Convenience: the reference report of every application (used by the
/// examples and the benchmark harness).
pub fn reference_reports(tech: &Technology) -> Vec<ApplicationReport> {
    Application::all()
        .into_iter()
        .map(|app| {
            evaluate_application(
                &ApplicationProfile::of(app),
                tech,
                &EvaluationOptions::default(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::isca2004()
    }

    #[test]
    fn figure5_is_monotone_and_fo4_15_is_faster() {
        let pts = figure5(&tech(), 31);
        assert_eq!(pts.len(), 31);
        for pair in pts.windows(2) {
            assert!(pair[1].frequency_fo4_20 >= pair[0].frequency_fo4_20);
        }
        for p in &pts {
            assert!(p.frequency_fo4_15 > p.frequency_fo4_20);
        }
    }

    #[test]
    fn energy_attribution_agrees_with_report_counters() {
        let rows = energy_attribution_summary(&tech());
        assert_eq!(rows.len(), 12, "six profiles on two tiers");
        for row in &rows {
            assert_eq!(
                row.unpriced_events, 0,
                "{} [{}]: every simulation event must be billable",
                row.application, row.tier
            );
            assert!(
                row.relative_error <= 1e-3,
                "{} [{}]: attributed {} J vs report {} J disagree by {:.4}%",
                row.application,
                row.tier,
                row.attributed_j,
                row.report_j,
                row.relative_error * 100.0
            );
            assert!(row.attributed_j > 0.0);
            assert!(row.average_power_mw > 0.0);
            assert!(
                !row.binding.is_empty(),
                "a loaded run has a binding resource"
            );
            assert!(row.binding_utilization > 0.0 && row.binding_utilization <= 1.0);
        }
        // The two tiers of one application price to the same energy —
        // their streams are batching-equivalent, so the ledgers agree.
        for pair in rows.chunks(2) {
            let rel = (pair[0].attributed_j - pair[1].attributed_j).abs()
                / pair[0].attributed_j.max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-9,
                "{}: tiers disagree by {rel}",
                pair[0].application
            );
        }
    }

    #[test]
    fn explain_infeasibility_names_the_period_overflow() {
        let explanation = explain_infeasibility(&deep_pipeline(), DEEP_PIPELINE_RATE_HZ, 64);
        assert!(!explanation.feasible);
        let dominant = explanation
            .classes
            .first()
            .expect("an infeasible triple has at least one rejection class");
        assert_eq!(dominant.code, "period_overflow");
        assert!(
            explanation.explanation.contains("46") && explanation.explanation.contains("25"),
            "the explanation names the 46-word demand against the 25-slot frame:\n{}",
            explanation.explanation
        );
    }

    #[test]
    fn explain_infeasibility_reports_feasible_triples_with_an_empty_ledger() {
        let reference = reference_graph(Application::Ddc);
        // The DDC reference mapping realizes within a generous budget.
        let explanation = explain_infeasibility(&reference.graph, reference.iteration_rate_hz, 64);
        assert!(explanation.feasible);
        assert!(explanation.classes.is_empty());
        assert!(explanation.explanation.contains("no rejections"));
    }

    #[test]
    fn table1_and_table2_have_the_published_shape() {
        let t1 = table1(&tech());
        assert!(t1
            .iter()
            .any(|(k, v, _)| k == "Tile Power" && v.contains("0.1")));
        let (tile, ctrl) = table2();
        assert_eq!(tile.len(), 7);
        assert_eq!(ctrl.len(), 6);
        let total: f64 = tile.iter().map(|(_, a)| a).sum();
        assert!((total / 1e6 - 7.27).abs() < 0.01);
    }

    #[test]
    fn table3_contains_synchroscalar_and_reference_rows() {
        let rows = table3(&tech());
        let synchro = rows
            .iter()
            .filter(|r| r.platform == "Synchroscalar")
            .count();
        assert_eq!(synchro, 5);
        assert!(rows.len() > 15);
        // The DDC Synchroscalar row should land near the paper's 2427 mW.
        let ddc = rows
            .iter()
            .find(|r| r.platform == "Synchroscalar" && r.application == "DDC")
            .unwrap();
        assert!(ddc.power_mw > 2100.0 && ddc.power_mw < 2800.0);
    }

    #[test]
    fn efficiency_ratios_match_the_headline_claims() {
        // The abstract claims 8–30× of ASIC power and 10–60× better than
        // DSPs; allow a generous band around those ranges.
        let t = tech();
        for app in [
            Application::Wifi80211a,
            Application::Ddc,
            Application::Mpeg4Qcif,
        ] {
            let r = efficiency_ratios(&t, app).unwrap();
            assert!(
                r.vs_asic > 1.0 && r.vs_asic < 60.0,
                "{app:?}: vs ASIC ratio {:.1}",
                r.vs_asic
            );
            assert!(
                r.vs_dsp > 3.0,
                "{app:?}: vs DSP ratio {:.1} should show a large advantage",
                r.vs_dsp
            );
        }
    }

    #[test]
    fn table4_totals_are_consistent_with_blocks() {
        let rows = table4(&tech());
        for app in Application::all() {
            let name = app.name();
            let blocks: Vec<&Table4Row> = rows
                .iter()
                .filter(|r| r.application == name && r.algorithm != "TOTAL")
                .collect();
            let total = rows
                .iter()
                .find(|r| r.application == name && r.algorithm == "TOTAL")
                .unwrap();
            let sum: f64 = blocks.iter().map(|r| r.power_mw).sum();
            assert!((sum - total.power_mw).abs() < 1e-6);
            assert!(total.single_voltage_mw >= total.power_mw - 1e-9);
        }
    }

    #[test]
    fn figure6_savings_are_nonnegative_and_bounded() {
        for bar in figure6(&tech()) {
            assert!(bar.savings_percent >= 0.0 && bar.savings_percent < 60.0);
            assert!(bar.additional_unscaled_mw >= 0.0);
        }
    }

    #[test]
    fn figure7_more_tiles_reduces_compute_power_for_wifi() {
        let bars = figure7(&tech());
        let wifi: Vec<&Figure7Bar> = bars.iter().filter(|b| b.application == "802.11a").collect();
        assert_eq!(wifi.len(), 3);
        // 12 → 20 → 36 tiles: compute power falls as frequency and voltage
        // scale down, and so does the total despite the growing tile count.
        assert!(wifi[0].compute_mw > wifi[1].compute_mw);
        assert!(wifi[1].compute_mw >= wifi[2].compute_mw);
        assert!(wifi[0].total_mw() > wifi[1].total_mw());
        assert!(wifi[1].total_mw() > wifi[2].total_mw());
        // The 12-tile squeeze pushes the Viterbi ACS past the supply
        // envelope while the reference 20-tile mapping fits.
        assert!(!wifi[0].feasible);
        assert!(wifi[1].feasible);
    }

    #[test]
    fn figure8_reproduces_the_bus_width_knee() {
        let pts = figure8(&tech());
        assert_eq!(pts.len(), 18);
        let power = |tiles: u32, width: u32| {
            pts.iter()
                .find(|p| p.tiles == tiles && p.bus_width_bits == width)
                .unwrap()
                .power_mw
        };
        for tiles in [8, 16, 32] {
            let gain_128_to_256 = power(tiles, 128) - power(tiles, 256);
            let gain_256_to_512 = power(tiles, 256) - power(tiles, 512);
            assert!(gain_128_to_256 > 0.0, "wider bus must save power");
            assert!(
                gain_128_to_256 > gain_256_to_512,
                "diminishing returns beyond 256 bits for {tiles} tiles"
            );
        }
        // Area grows with both tiles and bus width.
        let area = |tiles: u32, width: u32| {
            pts.iter()
                .find(|p| p.tiles == tiles && p.bus_width_bits == width)
                .unwrap()
                .area_mm2
        };
        assert!(area(32, 256) > area(16, 256));
        assert!(area(16, 1024) > area(16, 32));
    }

    #[test]
    fn leakage_sensitivity_reproduces_the_crossover_behaviour() {
        let pts = leakage_sensitivity(&tech());
        // At low leakage the most-parallel MPEG-4 variant is at least as
        // good as the 12-tile variant; at the highest leakage the ordering
        // flips (Figure 10's cross-over).
        let power = |tiles: u32, leak: f64| {
            pts.iter()
                .find(|p| {
                    p.application == "MPEG4 CIF"
                        && p.tiles == tiles
                        && (p.leakage_ma_per_tile - leak).abs() < 1e-9
                })
                .map(|p| p.power_mw)
                .unwrap()
        };
        let lowest = LeakageModel::figure9_sweep_points()[0];
        let highest = *LeakageModel::figure9_sweep_points().last().unwrap();
        let low_36 = power(36, lowest);
        let low_12 = power(12, lowest);
        let high_36 = power(36, highest);
        let high_12 = power(12, highest);
        assert!(
            low_36 <= low_12 * 1.05,
            "at low leakage more tiles should win or tie"
        );
        assert!(high_36 > high_12, "at high leakage fewer tiles must win");
    }

    #[test]
    fn leakage_sweep_covers_every_variant_and_point() {
        let pts = leakage_sensitivity(&tech());
        let variants: usize = Application::all()
            .iter()
            .map(|&a| ApplicationProfile::of(a).parallelization_variants.len())
            .sum();
        assert_eq!(pts.len(), variants * 9);
    }

    #[test]
    fn sensitivity_sweep_is_monotone_in_u() {
        let pts = tile_power_sensitivity(&tech());
        let ddc: Vec<&SensitivityPoint> = pts.iter().filter(|p| p.application == "DDC").collect();
        for pair in ddc.windows(2) {
            assert!(pair[1].power_mw > pair[0].power_mw);
        }
    }

    #[test]
    fn auto_mapping_rediscovers_every_table4_operating_point() {
        let rows = auto_mapping_summary(&tech());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.max_frequency_error < 1e-9,
                "{}: auto-mapped frequencies off Table 4 by {}",
                row.application,
                row.max_frequency_error
            );
            assert!(
                row.auto_power_mw <= row.reference_power_mw + 1e-9,
                "{}: auto {} mW vs reference {} mW",
                row.application,
                row.auto_power_mw,
                row.reference_power_mw
            );
            assert!(row.fused_power_mw <= row.auto_power_mw + 1e-9);
            assert!(row.cross_validated, "{}", row.application);
        }
    }

    #[test]
    fn every_reference_profile_compiles_to_a_conflict_free_tdm_schedule() {
        let rows = route_schedule_summary(&tech());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.conflict_free, "{}", row.application);
            assert!(row.occupied_slots > 0, "{}", row.application);
            assert!(
                row.utilization > 0.0 && row.utilization <= 1.0,
                "{}: utilization {}",
                row.application,
                row.utilization
            );
            // Slot-activity calibration: with idle slots free, the slot
            // path must reproduce the rate-based model.
            assert!(
                (row.slot_power_mw - row.rate_power_mw).abs()
                    <= 1e-9 * row.rate_power_mw.max(1e-12),
                "{}: {} vs {} mW",
                row.application,
                row.slot_power_mw,
                row.rate_power_mw
            );
        }
        // The DDC frame: 25 slots, 10 occupied.
        let ddc = rows.iter().find(|r| r.application == "DDC").unwrap();
        assert_eq!(ddc.period, 25);
        assert_eq!(ddc.occupied_slots, 10);
        assert_eq!(ddc.idle_slots, 15);
    }

    #[test]
    fn trace_scale_rows_match_an_interpreted_short_run_scaled_up() {
        // 10 000 frames of every application, batched: every firing count
        // exact, every schedule busy, and the tick count an exact multiple
        // of the analytic hyperperiod expectation (plus the drain tail).
        let rows = try_trace_scale_summary(&tech(), 10_000).unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.firings_exact, "{}", row.application);
            assert!(row.horizontal_words > 0, "{}", row.application);
            assert!(
                row.reference_ticks >= row.frames * row.hyperperiod,
                "{}: {} ticks for {} frames of {}",
                row.application,
                row.reference_ticks,
                row.frames,
                row.hyperperiod
            );
            assert!(row.bus_utilization > 0.0 && row.bus_utilization <= 1.0);
        }
    }

    #[test]
    fn unschedulable_rates_return_structured_errors_not_panics() {
        // The DDC moves 10 words per iteration; at 100 M iterations/s the
        // 400 MHz bus frame has only 4 slots, so the mapping must be
        // rejected via the structured error path.
        let err = try_trace_scale_row(&tech(), Application::Ddc, 100e6, 100).unwrap_err();
        let TraceScaleError::Unschedulable {
            application,
            iteration_rate_hz,
            source,
        } = &err;
        assert_eq!(application, "DDC");
        assert_eq!(*iteration_rate_hz, 100e6);
        assert!(matches!(source, mapper::MapperError::Route(_)), "{source}");
        assert!(err.to_string().contains("unschedulable"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn reference_reports_cover_all_applications() {
        let reports = reference_reports(&tech());
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.total_mw() > 0.0));
    }

    #[test]
    fn board_summary_rejects_one_chip_and_prices_the_multi_chip_bridges() {
        let rows = board_summary(&tech());
        assert_eq!(rows.len(), 4);
        // The pinned single-chip rejection: 46 words cannot fit the
        // reference 25-slot frame.
        let single = &rows[0];
        assert_eq!((single.max_chips, single.chips), (1, 1));
        let why = single.rejection.as_deref().expect("one chip is rejected");
        assert!(why.contains("46"), "{why}");
        assert!(why.contains("25"), "{why}");
        // Every larger board is feasible end to end, with the 2-word
        // bridge boundary simulated and priced.
        for row in &rows[1..] {
            assert!(row.rejection.is_none(), "{:?}", row.rejection);
            assert!(row.chips >= 2 && row.chips <= row.max_chips);
            assert!(row.total_tiles >= 24);
            assert!(row.compute_power_mw > 0.0);
            assert!(row.bridge_words_per_iteration >= 2);
            assert!(row.bridge_occupied_slots >= row.bridge_words_per_iteration);
            assert!(row.bridge_utilization > 0.0 && row.bridge_utilization <= 1.0);
            assert!(row.bridge_power_mw > 0.0);
            assert!(row.firings_exact);
        }
        // Chip counts are searched ascending, so the cheapest feasible
        // board (2 chips, one 2-word bridge crossing) wins everywhere.
        assert!(rows[1..].iter().all(|r| r.chips == 2));
        assert_eq!(rows[1].bridge_words_per_iteration, 2);
    }

    #[test]
    fn degraded_mode_summary_pins_monotone_curves_and_fault_rejections() {
        let rows = degraded_mode_summary(&tech());
        // Six reference applications plus the two-chip deep pipeline.
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(
                row.fault_rejected,
                "{}: compiling onto dead hardware must be rejected",
                row.application
            );
            assert!(!row.curve.points.is_empty(), "{}", row.application);
            assert!(
                row.curve.is_monotone(),
                "{}: degradation must never buy throughput back: {:#?}",
                row.application,
                row.curve.points
            );
            assert_eq!(row.curve.full_rate_hz, row.full_rate_hz);
            for p in &row.curve.points {
                assert!(p.rate_hz <= row.full_rate_hz);
                assert!(
                    !p.feasible || p.power_mw > 0.0,
                    "{}: feasible points carry a cost: {p:?}",
                    row.application
                );
            }
        }
        // Single-chip rows lose each reference column in turn.
        for row in &rows[..6] {
            assert_eq!(row.curve.points.len(), row.columns, "{}", row.application);
        }
        // Every application survives the loss of its smallest column at
        // *some* rate — the reference mappings do not sit on a cliff.
        for row in &rows[..6] {
            assert!(
                row.curve.points[0].feasible,
                "{}: smallest-column loss found no remap: {:?}",
                row.application, row.curve.points[0]
            );
        }
        // The board row: the largest-column loss and the severed bridge
        // both find a degraded operating point rather than a dead end
        // (the bridge loss falls back to fewer chips at a reduced rate).
        let board = &rows[6];
        assert!(board.application.starts_with("deep_pipeline"));
        assert_eq!(board.curve.points.len(), 2);
        assert!(
            board.curve.points[0].feasible,
            "column loss: {:?}",
            board.curve.points[0]
        );
        assert!(
            board.curve.points[1].feasible,
            "bridge loss: {:?}",
            board.curve.points[1]
        );
    }
}
