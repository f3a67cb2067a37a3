//! Trace analytics: energy attribution, bottleneck/slack analysis, and
//! rejection ledgers ("explain infeasibility").
//!
//! The third exporter next to [`crate::chrome`] and [`crate::report`]:
//! where those render *what happened*, this module answers *where the
//! joules went* and *which resource binds the rate*.  It prices each
//! simulation event of a captured stream through the `synchro-power`
//! models —
//!
//! * divider ticks × the column's voltage/frequency operating point
//!   ([`synchro_power::TilePowerModel::energy_per_cycle_nj`]),
//! * horizontal-bus slot occupancy × the wire-capacitance word energy
//!   ([`synchro_power::InterconnectModel::word_energy_j`]),
//! * bridge transfers × the lane's per-word rating,
//! * plus supply-time leakage ([`synchro_power::LeakageModel`]) —
//!
//! into per-column / per-bus / per-bridge [`EnergyLedger`]s and a
//! time-bucketed [`PowerTimeline`] (exported as Perfetto counter tracks
//! by [`crate::chrome::chrome_trace_with_power`]).  Because both
//! execution tiers emit equivalent streams modulo batching, the same
//! pricing applies to either; the `synchroscalar` experiments pin the
//! attributed totals against the independent report-counter energy on
//! every reference profile.
//!
//! [`bottlenecks`] turns the same stream into per-track load against
//! each track's ceiling (a column's divider-implied cycle budget, the
//! bus/bridge TDM frames), identifying the binding resource and the
//! deadline headroom per hyperperiod.  [`RejectionLedger`] is a
//! [`TraceSink`] aggregating the router's and explorer's structured
//! rejection events into a ranked explanation of *why* a `(graph, rate,
//! budget)` triple is infeasible.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use synchro_power::{BusGeometry, InterconnectModel, LeakageModel, TilePowerModel};

use crate::{TraceEvent, TraceSink};

/// Pricing context for one column: its placement identity and the
/// operating point its events are billed at.
#[derive(Debug, Clone)]
pub struct ColumnPricing {
    /// Board chip hosting the column.
    pub chip: u32,
    /// Column index within the chip.
    pub column: u32,
    /// Human-readable label (actor name).
    pub label: String,
    /// Tiles the placement runs (every billed cycle clocks all of them).
    pub tiles: u32,
    /// Supply voltage of the column's operating point.
    pub voltage: f64,
    /// Clock divider relative to the reference clock — the column's
    /// cycle-budget ceiling is `reference_ticks / clock_divider`.
    pub clock_divider: u32,
}

/// Pricing context for one chip's horizontal bus.
#[derive(Debug, Clone)]
pub struct BusPricing {
    /// Board chip the bus belongs to.
    pub chip: u32,
    /// Physical geometry the word energy derives from.
    pub geometry: BusGeometry,
    /// Supply voltage the transfers switch at (the chip's maximum column
    /// voltage, matching the route-schedule calibration convention).
    pub voltage: f64,
    /// TDM slots the schedule reserves per graph iteration (occupied +
    /// idle) — the bus ceiling for bottleneck analysis.  Not derivable
    /// from the event stream: idle slots emit nothing.
    pub scheduled_slots_per_iteration: u64,
}

/// Everything needed to price a captured event stream: per-column and
/// per-bus operating points plus the shared power models.  Built by
/// `synchroscalar::mapper::CompiledChip::price_spec` (or the board
/// variant) from the compiled plans; kept as plain data here so the
/// exporter layer stays independent of the mapper.
#[derive(Debug, Clone)]
pub struct PriceSpec {
    /// Graph-iteration rate the run was compiled for.
    pub iteration_rate_hz: f64,
    /// Reference ticks per graph iteration.
    pub hyperperiod: u64,
    /// Dynamic tile power model (per-cycle energy).
    pub tile_power: TilePowerModel,
    /// Leakage model (supply-time energy of powered tiles).
    pub leakage: LeakageModel,
    /// Interconnect model (bus word energy, bridge word energy).
    pub interconnect: InterconnectModel,
    /// Column pricing rows, one per placed column.
    pub columns: Vec<ColumnPricing>,
    /// Bus pricing rows, one per chip.
    pub buses: Vec<BusPricing>,
    /// Per-word energy rating of the board's bridge lanes, in pJ.
    pub bridge_energy_pj_per_word: f64,
    /// Bridge TDM slots reserved per graph iteration (0 on single-chip
    /// runs) — the bridge ceiling for bottleneck analysis.
    pub bridge_scheduled_slots_per_iteration: u64,
}

impl PriceSpec {
    /// Wall-clock seconds a run of `reference_ticks` spans:
    /// `ticks / (hyperperiod × iteration rate)`.
    pub fn duration_s(&self, reference_ticks: u64) -> f64 {
        if self.hyperperiod == 0 || self.iteration_rate_hz <= 0.0 {
            return 0.0;
        }
        reference_ticks as f64 / (self.hyperperiod as f64 * self.iteration_rate_hz)
    }

    /// Dynamic energy of one billed cycle of `column`, in joules (all
    /// tiles of the column clock together).
    fn cycle_energy_j(&self, column: &ColumnPricing) -> f64 {
        self.tile_power.energy_per_cycle_nj(column.voltage) * 1e-9 * f64::from(column.tiles)
    }

    /// Leakage power of `column` in watts.
    fn leakage_w(&self, column: &ColumnPricing) -> f64 {
        self.leakage.power_mw(column.tiles, column.voltage) * 1e-3
    }
}

/// The `(chip, column) → pricing row` and `chip → bus row` lookups of
/// one [`PriceSpec`], built once per analysis call in one allocation, so
/// short fast-tier streams stay cheap too.  A key resolves to its
/// *first* matching spec row, exactly as a linear `find` would, and
/// carries that row's unit energy: the same f64 the per-event pricing
/// evaluated, so ledger sums built from it are bit-identical.
struct PriceIndex {
    /// Entries per chip: a header holding the chip id, one entry per
    /// column id up to the largest, then the chip's bus.  Column ids
    /// index a chip's columns, so the table stays small and dense.
    width: usize,
    /// `width` entries per distinct chip, in first-seen order.
    table: Vec<PriceEntry>,
}

/// One [`PriceIndex`] table entry.
#[derive(Debug, Clone, Copy)]
struct PriceEntry {
    /// Spec row ([`NO_ROW`] where the spec prices nothing), or in a
    /// chip's header entry the chip id.
    row: u32,
    /// Energy of one unit on the row: a billed cycle for a column, a
    /// transferred word for a bus (J).
    unit_j: f64,
}

/// A [`PriceEntry`] naming no spec row.
const NO_ROW: u32 = u32::MAX;

impl PriceIndex {
    fn new(spec: &PriceSpec) -> Self {
        let columns = spec
            .columns
            .iter()
            .map(|c| c.column as usize + 1)
            .max()
            .unwrap_or(0);
        let width = columns + 2;
        let mut index = PriceIndex {
            width,
            table: Vec::with_capacity(width),
        };
        for (row, c) in spec.columns.iter().enumerate() {
            index.claim(c.chip, 1 + c.column as usize, row, || {
                spec.cycle_energy_j(c)
            });
        }
        for (row, b) in spec.buses.iter().enumerate() {
            index.claim(b.chip, width - 1, row, || {
                spec.interconnect.word_energy_j(&b.geometry, b.voltage)
            });
        }
        index
    }

    /// Point `chip`'s entry `at` at spec row `row` unless an earlier row
    /// already claimed it.
    fn claim(&mut self, chip: u32, at: usize, row: usize, unit_j: impl FnOnce() -> f64) {
        let start = match self
            .table
            .chunks_exact(self.width)
            .position(|e| e[0].row == chip)
        {
            Some(slot) => slot * self.width,
            None => {
                let start = self.table.len();
                self.table.push(PriceEntry {
                    row: chip,
                    unit_j: 0.0,
                });
                let empty = PriceEntry {
                    row: NO_ROW,
                    unit_j: 0.0,
                };
                self.table.resize(start + self.width, empty);
                start
            }
        };
        let entry = &mut self.table[start + at];
        if entry.row == NO_ROW {
            *entry = PriceEntry {
                row: row as u32,
                unit_j: unit_j(),
            };
        }
    }

    /// The spec row at `chip`'s entry `at`, with its unit energy.
    fn lookup(&self, chip: u32, at: usize) -> Option<(usize, f64)> {
        let entries = self
            .table
            .chunks_exact(self.width)
            .find(|e| e[0].row == chip)?;
        let entry = entries[at];
        (entry.row != NO_ROW).then_some((entry.row as usize, entry.unit_j))
    }

    /// The first column row pricing `(chip, column)` and the energy of
    /// one of its billed cycles.
    fn column(&self, chip: u32, column: u32) -> Option<(usize, f64)> {
        let at = 1 + column as usize;
        (at < self.width - 1).then(|| self.lookup(chip, at))?
    }

    /// The first bus row pricing `chip` and the energy of one of its
    /// words.
    fn bus(&self, chip: u32) -> Option<(usize, f64)> {
        self.lookup(chip, self.width - 1)
    }
}

/// Energy attributed to one column over a run.
#[derive(Debug, Clone)]
pub struct ColumnEnergy {
    /// Board chip hosting the column.
    pub chip: u32,
    /// Column index within the chip.
    pub column: u32,
    /// Column label from the pricing spec.
    pub label: String,
    /// Billed column cycles (divider ticks, ZORM stall slots included).
    pub cycles: u64,
    /// ZORM stall cycles among them (billed but doing no useful work).
    pub zorm_stall_cycles: u64,
    /// Dynamic switching energy, joules.
    pub dynamic_j: f64,
    /// Supply-time leakage energy, joules.
    pub leakage_j: f64,
}

impl ColumnEnergy {
    /// Dynamic + leakage energy of the column, joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

/// Energy attributed to one chip's horizontal bus over a run.
#[derive(Debug, Clone)]
pub struct BusEnergy {
    /// Board chip the bus belongs to.
    pub chip: u32,
    /// Words observed crossing the bus.
    pub words: u64,
    /// Wire-switching energy of those words, joules.
    pub energy_j: f64,
}

/// Energy attributed to one bridge lane over a run.
#[derive(Debug, Clone)]
pub struct BridgeEnergy {
    /// Bridge lane index within the board.
    pub lane: u32,
    /// Producing chip.
    pub from_chip: u32,
    /// Consuming chip.
    pub to_chip: u32,
    /// Words observed crossing the lane.
    pub words: u64,
    /// Rated transfer energy of those words, joules.
    pub energy_j: f64,
}

/// The priced run: where every joule of a captured event stream went.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    /// Reference ticks the priced run spanned.
    pub reference_ticks: u64,
    /// Wall-clock seconds the run spanned.
    pub duration_s: f64,
    /// Per-column ledger rows, in pricing-spec order.
    pub columns: Vec<ColumnEnergy>,
    /// Per-bus ledger rows, in pricing-spec order.
    pub buses: Vec<BusEnergy>,
    /// Per-bridge-lane ledger rows, in first-seen order.
    pub bridges: Vec<BridgeEnergy>,
    /// Simulation events that named a chip/column the spec does not
    /// price — nonzero means the spec and the stream disagree about the
    /// hardware and the ledger under-counts.
    pub unpriced_events: u64,
}

impl EnergyLedger {
    /// Total dynamic (switching) energy of all columns, joules.
    pub fn dynamic_j(&self) -> f64 {
        self.columns.iter().map(|c| c.dynamic_j).sum()
    }

    /// Total leakage energy of all columns, joules.
    pub fn leakage_j(&self) -> f64 {
        self.columns.iter().map(|c| c.leakage_j).sum()
    }

    /// Total interconnect energy (horizontal buses + bridge lanes),
    /// joules.
    pub fn interconnect_j(&self) -> f64 {
        self.buses.iter().map(|b| b.energy_j).sum::<f64>()
            + self.bridges.iter().map(|b| b.energy_j).sum::<f64>()
    }

    /// Everything: compute + leakage + interconnect, joules.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j() + self.leakage_j() + self.interconnect_j()
    }

    /// Average power over the run, milliwatts (0 for a zero-length run).
    pub fn average_power_mw(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.total_j() / self.duration_s * 1e3
    }

    /// Render the ledger as an aligned plain-text table titled `title`.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>12} {:>12} {:>8}",
            "track", "cycles/words", "dynamic µJ", "leakage µJ", "share"
        );
        let total = self.total_j().max(f64::MIN_POSITIVE);
        for c in &self.columns {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12.3} {:>7.1}%",
                format!("chip{}/col{} {}", c.chip, c.column, c.label),
                c.cycles,
                c.dynamic_j * 1e6,
                c.leakage_j * 1e6,
                c.total_j() / total * 100.0,
            );
        }
        for b in &self.buses {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12} {:>7.1}%",
                format!("chip{}/horizontal bus", b.chip),
                b.words,
                b.energy_j * 1e6,
                "-",
                b.energy_j / total * 100.0,
            );
        }
        for b in &self.bridges {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>12.3} {:>12} {:>7.1}%",
                format!("bridge lane {} {}→{}", b.lane, b.from_chip, b.to_chip),
                b.words,
                b.energy_j * 1e6,
                "-",
                b.energy_j / total * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "  total {:.3} µJ over {:.3} µs = {:.3} mW average",
            self.total_j() * 1e6,
            self.duration_s * 1e6,
            self.average_power_mw(),
        );
        if self.unpriced_events > 0 {
            let _ = writeln!(
                out,
                "  WARNING: {} events named unpriced hardware",
                self.unpriced_events
            );
        }
        out
    }
}

/// Price a captured event stream: fold every simulation event into
/// per-column / per-bus / per-bridge energy, plus supply-time leakage
/// over the run's `reference_ticks`.
///
/// Works on raw streams from either execution tier — the interpreter's
/// one-event-per-occurrence form and the fast tier's batched form sum
/// to identical totals, so no [`crate::normalize`] pass is needed.
/// Compile-side events (route slots, phases, counters) carry no energy
/// and are ignored.
pub fn attribute(events: &[TraceEvent], spec: &PriceSpec, reference_ticks: u64) -> EnergyLedger {
    let duration_s = spec.duration_s(reference_ticks);
    let mut columns: Vec<ColumnEnergy> = spec
        .columns
        .iter()
        .map(|c| ColumnEnergy {
            chip: c.chip,
            column: c.column,
            label: c.label.clone(),
            cycles: 0,
            zorm_stall_cycles: 0,
            dynamic_j: 0.0,
            leakage_j: spec.leakage_w(c) * duration_s,
        })
        .collect();
    let mut buses: Vec<BusEnergy> = spec
        .buses
        .iter()
        .map(|b| BusEnergy {
            chip: b.chip,
            words: 0,
            energy_j: 0.0,
        })
        .collect();
    let mut bridges: Vec<BridgeEnergy> = Vec::new();
    let mut unpriced = 0u64;
    let index = PriceIndex::new(spec);
    let bridge_word_j = spec
        .interconnect
        .bridge_word_energy_j(spec.bridge_energy_pj_per_word);

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                count,
                ..
            } => match index.column(*chip, *column) {
                Some((row, cycle_j)) => {
                    columns[row].cycles += count;
                    columns[row].dynamic_j += cycle_j * *count as f64;
                }
                None => unpriced += 1,
            },
            TraceEvent::ZormStall {
                chip,
                column,
                cycles,
                ..
            } => match index.column(*chip, *column) {
                // Stall slots are billed cycles and already priced via
                // their DividerTick; record them for the stall share only.
                Some((row, _)) => columns[row].zorm_stall_cycles += cycles,
                None => unpriced += 1,
            },
            TraceEvent::BusSlot(slot) => match index.bus(slot.chip) {
                Some((row, word_j)) => {
                    buses[row].words += slot.words;
                    buses[row].energy_j += word_j * slot.words as f64;
                }
                None => unpriced += 1,
            },
            TraceEvent::BridgeTransfer(transfer) => {
                let energy = bridge_word_j * transfer.words as f64;
                match bridges.iter_mut().find(|b| b.lane == transfer.lane) {
                    Some(row) => {
                        row.words += transfer.words;
                        row.energy_j += energy;
                    }
                    None => bridges.push(BridgeEnergy {
                        lane: transfer.lane,
                        from_chip: transfer.from_chip,
                        to_chip: transfer.to_chip,
                        words: transfer.words,
                        energy_j: energy,
                    }),
                }
            }
            _ => {}
        }
    }
    bridges.sort_by_key(|b| b.lane);
    EnergyLedger {
        reference_ticks,
        duration_s,
        columns,
        buses,
        bridges,
        unpriced_events: unpriced,
    }
}

/// One sample of the time-bucketed power timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// First reference tick the bucket covers.
    pub start_tick: u64,
    /// Dynamic compute power over the bucket, milliwatts.
    pub compute_mw: f64,
    /// Interconnect (bus + bridge) power over the bucket, milliwatts.
    pub interconnect_mw: f64,
    /// Leakage power over the bucket, milliwatts (constant).
    pub leakage_mw: f64,
}

impl PowerSample {
    /// Total power of the sample, milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.compute_mw + self.interconnect_mw + self.leakage_mw
    }
}

/// A run's power over reference time, bucketed into equal tick windows.
///
/// Built from per-event ticks, so it is most informative on interpreted
/// captures; the fast tier batches a whole run into a handful of events,
/// which all land in the bucket of their (final) tick.
#[derive(Debug, Clone)]
pub struct PowerTimeline {
    /// Reference ticks per bucket.
    pub bucket_ticks: u64,
    /// Wall-clock seconds per bucket.
    pub bucket_seconds: f64,
    /// Samples, earliest bucket first.
    pub samples: Vec<PowerSample>,
}

/// Bucket a captured event stream's energy over reference time into
/// `buckets` equal windows and convert each to average power.
pub fn power_timeline(
    events: &[TraceEvent],
    spec: &PriceSpec,
    reference_ticks: u64,
    buckets: usize,
) -> PowerTimeline {
    let buckets = buckets.max(1);
    let bucket_ticks = reference_ticks.div_ceil(buckets as u64).max(1);
    let bucket_seconds = spec.duration_s(bucket_ticks);
    let leakage_mw: f64 = spec.columns.iter().map(|c| spec.leakage_w(c) * 1e3).sum();
    let mut compute_j = vec![0.0f64; buckets];
    let mut interconnect_j = vec![0.0f64; buckets];
    let bucket_of = |tick: u64| ((tick / bucket_ticks) as usize).min(buckets - 1);
    let index = PriceIndex::new(spec);
    let bridge_word_j = spec
        .interconnect
        .bridge_word_energy_j(spec.bridge_energy_pj_per_word);

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                tick,
                count,
            } => {
                if let Some((_, cycle_j)) = index.column(*chip, *column) {
                    compute_j[bucket_of(*tick)] += cycle_j * *count as f64;
                }
            }
            TraceEvent::BusSlot(slot) => {
                if let Some((_, word_j)) = index.bus(slot.chip) {
                    interconnect_j[bucket_of(slot.tick)] += word_j * slot.words as f64;
                }
            }
            TraceEvent::BridgeTransfer(transfer) => {
                interconnect_j[bucket_of(transfer.tick)] += bridge_word_j * transfer.words as f64;
            }
            _ => {}
        }
    }

    let to_mw = |j: f64| {
        if bucket_seconds > 0.0 {
            j / bucket_seconds * 1e3
        } else {
            0.0
        }
    };
    PowerTimeline {
        bucket_ticks,
        bucket_seconds,
        samples: (0..buckets)
            .map(|i| PowerSample {
                start_tick: i as u64 * bucket_ticks,
                compute_mw: to_mw(compute_j[i]),
                interconnect_mw: to_mw(interconnect_j[i]),
                leakage_mw,
            })
            .collect(),
    }
}

/// One track of the bottleneck report: how much of its ceiling a
/// resource consumed over the run.
#[derive(Debug, Clone)]
pub struct TrackLoad {
    /// Track label (column, bus, bridge).
    pub label: String,
    /// Units consumed (billed cycles, words).
    pub used: u64,
    /// Ceiling in the same units over the run — a column's
    /// divider-implied cycle budget, a bus/bridge frame's scheduled
    /// slots.
    pub capacity: u64,
    /// ZORM stall cycles among `used` (columns only) — billed slots that
    /// did no useful work, i.e. the rate-matching tax.
    pub stall_cycles: u64,
}

impl TrackLoad {
    /// `used / capacity` in `[0, 1]` (0 for an idle/absent ceiling).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            (self.used as f64 / self.capacity as f64).min(1.0)
        }
    }
}

/// The bottleneck/slack verdict of one run.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Reference ticks per graph iteration.
    pub hyperperiod: u64,
    /// Per-track loads: columns first, then buses, then bridge lanes.
    pub tracks: Vec<TrackLoad>,
    /// Label of the binding resource (highest utilization), if any track
    /// saw load at all.
    pub binding: Option<String>,
    /// Utilization of the binding resource in `[0, 1]`.
    pub binding_utilization: f64,
    /// Reference ticks of slack per hyperperiod on the binding resource:
    /// how much the deadline could tighten before it saturates.
    pub headroom_ticks_per_hyperperiod: u64,
}

impl BottleneckReport {
    /// Render the report as plain text titled `title`.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let width = self
            .tracks
            .iter()
            .map(|t| t.label.chars().count())
            .max()
            .unwrap_or(0)
            .max(28);
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "  {:<width$} {:>12}/{:<12} {:>6.1}%{}",
                t.label,
                t.used,
                t.capacity,
                t.utilization() * 100.0,
                if t.stall_cycles > 0 {
                    format!("  ({} ZORM stall cycles)", t.stall_cycles)
                } else {
                    String::new()
                },
            );
        }
        match &self.binding {
            Some(binding) => {
                let _ = writeln!(
                    out,
                    "  binding resource: {} at {:.1}% — {} of {} ticks headroom per hyperperiod",
                    binding,
                    self.binding_utilization * 100.0,
                    self.headroom_ticks_per_hyperperiod,
                    self.hyperperiod,
                );
            }
            None => {
                let _ = writeln!(out, "  no load observed");
            }
        }
        out
    }
}

/// Analyse a captured event stream against each resource's ceiling: per
/// column, billed cycles against the divider-implied budget
/// (`reference_ticks / divider`); per bus/bridge, observed words against
/// the scheduled TDM slots.  The binding resource is the track with the
/// highest utilization, and the headroom is how many reference ticks of
/// each hyperperiod it leaves unused.
pub fn bottlenecks(
    events: &[TraceEvent],
    spec: &PriceSpec,
    reference_ticks: u64,
) -> BottleneckReport {
    let iterations = reference_ticks.checked_div(spec.hyperperiod).unwrap_or(0);
    let mut tracks: Vec<TrackLoad> = spec
        .columns
        .iter()
        .map(|c| TrackLoad {
            label: format!(
                "chip{}/col{} {} (\u{f7}{})",
                c.chip, c.column, c.label, c.clock_divider
            ),
            used: 0,
            capacity: reference_ticks / u64::from(c.clock_divider.max(1)),
            stall_cycles: 0,
        })
        .collect();
    let columns = tracks.len();
    tracks.extend(spec.buses.iter().map(|b| TrackLoad {
        label: format!("chip{}/horizontal bus", b.chip),
        used: 0,
        capacity: b.scheduled_slots_per_iteration * iterations,
        stall_cycles: 0,
    }));
    let mut bridge = TrackLoad {
        label: "bridge lanes".to_owned(),
        used: 0,
        capacity: spec.bridge_scheduled_slots_per_iteration * iterations,
        stall_cycles: 0,
    };

    let index = PriceIndex::new(spec);

    for event in events {
        match event {
            TraceEvent::DividerTick {
                chip,
                column,
                count,
                ..
            } => {
                if let Some((i, _)) = index.column(*chip, *column) {
                    tracks[i].used += count;
                }
            }
            TraceEvent::ZormStall {
                chip,
                column,
                cycles,
                ..
            } => {
                if let Some((i, _)) = index.column(*chip, *column) {
                    tracks[i].stall_cycles += cycles;
                }
            }
            TraceEvent::BusSlot(slot) => {
                if let Some((i, _)) = index.bus(slot.chip) {
                    tracks[columns + i].used += slot.words;
                }
            }
            TraceEvent::BridgeTransfer(transfer) => bridge.used += transfer.words,
            _ => {}
        }
    }
    if bridge.capacity > 0 || bridge.used > 0 {
        tracks.push(bridge);
    }

    let binding = tracks.iter().filter(|t| t.used > 0).max_by(|a, b| {
        // Ties (e.g. several exactly rate-matched columns at 100 %)
        // break toward the track consuming more absolute cycles —
        // the fastest-clocked, least-slowable resource.
        a.utilization()
            .total_cmp(&b.utilization())
            .then(a.used.cmp(&b.used))
    });
    let (binding, utilization) = match binding {
        Some(t) => (Some(t.label.clone()), t.utilization()),
        None => (None, 0.0),
    };
    BottleneckReport {
        hyperperiod: spec.hyperperiod,
        headroom_ticks_per_hyperperiod: ((1.0 - utilization) * spec.hyperperiod as f64).round()
            as u64,
        tracks,
        binding,
        binding_utilization: utilization,
    }
}

/// One aggregated class of rejection: every structured reject sharing a
/// machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectionClass {
    /// Stable machine-readable code (`"period_overflow"`,
    /// `"budget_too_small"`, `"comm_prune"`, `"fault"`, …).
    pub code: String,
    /// Occurrences observed.
    pub count: u64,
    /// The first rendered detail seen for the class (the human-readable
    /// why).
    pub example: String,
}

#[derive(Debug, Default)]
struct RejectionState {
    classes: BTreeMap<String, (u64, String)>,
}

impl RejectionState {
    fn add(&mut self, code: &str, count: u64, detail: impl FnOnce() -> String) {
        let entry = self
            .classes
            .entry(code.to_owned())
            .or_insert_with(|| (0, detail()));
        entry.0 += count;
    }
}

/// A [`TraceSink`] that aggregates *why mappings died*: structured
/// router/explorer rejections ([`TraceEvent::RouteReject`]), the
/// explorer's comm-prune counters, and fault events, folded per class
/// and ranked by count.  Install it on an `ExplorerConfig` and
/// `MapperOptions` trace to get a machine-checkable explanation of an
/// infeasible `(graph, rate, budget)` triple.
#[derive(Debug, Default)]
pub struct RejectionLedger {
    state: Mutex<RejectionState>,
}

impl RejectionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregated classes, most frequent first (ties broken by code).
    pub fn classes(&self) -> Vec<RejectionClass> {
        let state = self.state.lock().expect("rejection ledger poisoned");
        let mut classes: Vec<RejectionClass> = state
            .classes
            .iter()
            .map(|(code, (count, example))| RejectionClass {
                code: code.clone(),
                count: *count,
                example: example.clone(),
            })
            .collect();
        classes.sort_by(|a, b| b.count.cmp(&a.count).then(a.code.cmp(&b.code)));
        classes
    }

    /// The highest-ranked class, if anything was rejected at all.
    pub fn dominant(&self) -> Option<RejectionClass> {
        self.classes().into_iter().next()
    }

    /// Total rejections across all classes.
    pub fn total(&self) -> u64 {
        self.classes().iter().map(|c| c.count).sum()
    }

    /// True when nothing has been rejected.
    pub fn is_empty(&self) -> bool {
        self.state
            .lock()
            .expect("rejection ledger poisoned")
            .classes
            .is_empty()
    }

    /// Render the ranked explanation titled `title`.
    pub fn explain(&self, title: &str) -> String {
        let classes = self.classes();
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        if classes.is_empty() {
            let _ = writeln!(out, "  no rejections recorded");
            return out;
        }
        for (rank, class) in classes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}. {} \u{d7}{} — {}",
                rank + 1,
                class.code,
                class.count,
                class.example,
            );
        }
        out
    }
}

impl TraceSink for RejectionLedger {
    fn record(&self, event: &TraceEvent) {
        let mut state = self.state.lock().expect("rejection ledger poisoned");
        match event {
            TraceEvent::RouteReject(reject) => {
                state.add(reject.code, 1, || reject.detail.clone());
            }
            TraceEvent::Counter { name, delta }
                if *delta > 0 && name.ends_with("groupings_comm_pruned") =>
            {
                state.add("comm_prune", *delta, || {
                    "cross-column traffic cannot fit the TDM frame".to_owned()
                });
            }
            TraceEvent::FaultColumnKilled { chip, column, tick } => {
                state.add("fault", 1, || {
                    format!("chip {chip} column {column} killed at tick {tick}")
                });
            }
            TraceEvent::FaultLaneKilled { lane, tick, .. } => {
                state.add("fault", 1, || format!("lane {lane} killed at tick {tick}"));
            }
            TraceEvent::FaultStalled { tick, window } => {
                state.add("fault", 1, || {
                    format!("stalled at tick {tick} (window {window})")
                });
            }
            _ => {}
        }
    }
}

/// The scan-per-event pricing the indexed [`attribute`],
/// [`power_timeline`] and [`bottlenecks`] replaced, kept as the oracle
/// they are property-tested against bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    fn column(spec: &PriceSpec, chip: u32, column: u32) -> Option<&ColumnPricing> {
        spec.columns
            .iter()
            .find(|c| c.chip == chip && c.column == column)
    }

    fn bus(spec: &PriceSpec, chip: u32) -> Option<&BusPricing> {
        spec.buses.iter().find(|b| b.chip == chip)
    }

    pub fn attribute(
        events: &[TraceEvent],
        spec: &PriceSpec,
        reference_ticks: u64,
    ) -> EnergyLedger {
        let duration_s = spec.duration_s(reference_ticks);
        let mut columns: Vec<ColumnEnergy> = spec
            .columns
            .iter()
            .map(|c| ColumnEnergy {
                chip: c.chip,
                column: c.column,
                label: c.label.clone(),
                cycles: 0,
                zorm_stall_cycles: 0,
                dynamic_j: 0.0,
                leakage_j: spec.leakage_w(c) * duration_s,
            })
            .collect();
        let mut buses: Vec<BusEnergy> = spec
            .buses
            .iter()
            .map(|b| BusEnergy {
                chip: b.chip,
                words: 0,
                energy_j: 0.0,
            })
            .collect();
        let mut bridges: Vec<BridgeEnergy> = Vec::new();
        let mut unpriced = 0u64;

        for event in events {
            match event {
                TraceEvent::DividerTick {
                    chip,
                    column: col,
                    count,
                    ..
                } => match column(spec, *chip, *col) {
                    Some(pricing) => {
                        let row = columns
                            .iter_mut()
                            .find(|c| c.chip == *chip && c.column == *col)
                            .expect("ledger rows mirror the spec");
                        row.cycles += count;
                        row.dynamic_j += spec.cycle_energy_j(pricing) * *count as f64;
                    }
                    None => unpriced += 1,
                },
                TraceEvent::ZormStall {
                    chip,
                    column: col,
                    cycles,
                    ..
                } => match columns
                    .iter_mut()
                    .find(|c| c.chip == *chip && c.column == *col)
                {
                    Some(row) => row.zorm_stall_cycles += cycles,
                    None => unpriced += 1,
                },
                TraceEvent::BusSlot(slot) => match bus(spec, slot.chip) {
                    Some(pricing) => {
                        let row = buses
                            .iter_mut()
                            .find(|b| b.chip == slot.chip)
                            .expect("ledger rows mirror the spec");
                        row.words += slot.words;
                        row.energy_j += spec
                            .interconnect
                            .word_energy_j(&pricing.geometry, pricing.voltage)
                            * slot.words as f64;
                    }
                    None => unpriced += 1,
                },
                TraceEvent::BridgeTransfer(transfer) => {
                    let energy = spec
                        .interconnect
                        .bridge_word_energy_j(spec.bridge_energy_pj_per_word)
                        * transfer.words as f64;
                    match bridges.iter_mut().find(|b| b.lane == transfer.lane) {
                        Some(row) => {
                            row.words += transfer.words;
                            row.energy_j += energy;
                        }
                        None => bridges.push(BridgeEnergy {
                            lane: transfer.lane,
                            from_chip: transfer.from_chip,
                            to_chip: transfer.to_chip,
                            words: transfer.words,
                            energy_j: energy,
                        }),
                    }
                }
                _ => {}
            }
        }
        bridges.sort_by_key(|b| b.lane);
        EnergyLedger {
            reference_ticks,
            duration_s,
            columns,
            buses,
            bridges,
            unpriced_events: unpriced,
        }
    }

    pub fn power_timeline(
        events: &[TraceEvent],
        spec: &PriceSpec,
        reference_ticks: u64,
        buckets: usize,
    ) -> PowerTimeline {
        let buckets = buckets.max(1);
        let bucket_ticks = reference_ticks.div_ceil(buckets as u64).max(1);
        let bucket_seconds = spec.duration_s(bucket_ticks);
        let leakage_mw: f64 = spec.columns.iter().map(|c| spec.leakage_w(c) * 1e3).sum();
        let mut compute_j = vec![0.0f64; buckets];
        let mut interconnect_j = vec![0.0f64; buckets];
        let bucket_of = |tick: u64| ((tick / bucket_ticks) as usize).min(buckets - 1);

        for event in events {
            match event {
                TraceEvent::DividerTick {
                    chip,
                    column: col,
                    tick,
                    count,
                } => {
                    if let Some(pricing) = column(spec, *chip, *col) {
                        compute_j[bucket_of(*tick)] += spec.cycle_energy_j(pricing) * *count as f64;
                    }
                }
                TraceEvent::BusSlot(slot) => {
                    if let Some(pricing) = bus(spec, slot.chip) {
                        interconnect_j[bucket_of(slot.tick)] += spec
                            .interconnect
                            .word_energy_j(&pricing.geometry, pricing.voltage)
                            * slot.words as f64;
                    }
                }
                TraceEvent::BridgeTransfer(transfer) => {
                    interconnect_j[bucket_of(transfer.tick)] += spec
                        .interconnect
                        .bridge_word_energy_j(spec.bridge_energy_pj_per_word)
                        * transfer.words as f64;
                }
                _ => {}
            }
        }

        let to_mw = |j: f64| {
            if bucket_seconds > 0.0 {
                j / bucket_seconds * 1e3
            } else {
                0.0
            }
        };
        PowerTimeline {
            bucket_ticks,
            bucket_seconds,
            samples: (0..buckets)
                .map(|i| PowerSample {
                    start_tick: i as u64 * bucket_ticks,
                    compute_mw: to_mw(compute_j[i]),
                    interconnect_mw: to_mw(interconnect_j[i]),
                    leakage_mw,
                })
                .collect(),
        }
    }

    pub fn bottlenecks(
        events: &[TraceEvent],
        spec: &PriceSpec,
        reference_ticks: u64,
    ) -> BottleneckReport {
        let iterations = reference_ticks.checked_div(spec.hyperperiod).unwrap_or(0);
        let mut tracks: Vec<TrackLoad> = spec
            .columns
            .iter()
            .map(|c| TrackLoad {
                label: format!(
                    "chip{}/col{} {} (\u{f7}{})",
                    c.chip, c.column, c.label, c.clock_divider
                ),
                used: 0,
                capacity: reference_ticks / u64::from(c.clock_divider.max(1)),
                stall_cycles: 0,
            })
            .collect();
        let columns = tracks.len();
        tracks.extend(spec.buses.iter().map(|b| TrackLoad {
            label: format!("chip{}/horizontal bus", b.chip),
            used: 0,
            capacity: b.scheduled_slots_per_iteration * iterations,
            stall_cycles: 0,
        }));
        let mut bridge = TrackLoad {
            label: "bridge lanes".to_owned(),
            used: 0,
            capacity: spec.bridge_scheduled_slots_per_iteration * iterations,
            stall_cycles: 0,
        };

        for event in events {
            match event {
                TraceEvent::DividerTick {
                    chip,
                    column,
                    count,
                    ..
                } => {
                    if let Some(i) = spec
                        .columns
                        .iter()
                        .position(|c| c.chip == *chip && c.column == *column)
                    {
                        tracks[i].used += count;
                    }
                }
                TraceEvent::ZormStall {
                    chip,
                    column,
                    cycles,
                    ..
                } => {
                    if let Some(i) = spec
                        .columns
                        .iter()
                        .position(|c| c.chip == *chip && c.column == *column)
                    {
                        tracks[i].stall_cycles += cycles;
                    }
                }
                TraceEvent::BusSlot(slot) => {
                    if let Some(i) = spec.buses.iter().position(|b| b.chip == slot.chip) {
                        tracks[columns + i].used += slot.words;
                    }
                }
                TraceEvent::BridgeTransfer(transfer) => bridge.used += transfer.words,
                _ => {}
            }
        }
        if bridge.capacity > 0 || bridge.used > 0 {
            tracks.push(bridge);
        }

        let binding = tracks.iter().filter(|t| t.used > 0).max_by(|a, b| {
            a.utilization()
                .total_cmp(&b.utilization())
                .then(a.used.cmp(&b.used))
        });
        let (binding, utilization) = match binding {
            Some(t) => (Some(t.label.clone()), t.utilization()),
            None => (None, 0.0),
        };
        BottleneckReport {
            hyperperiod: spec.hyperperiod,
            headroom_ticks_per_hyperperiod: ((1.0 - utilization) * spec.hyperperiod as f64).round()
                as u64,
            tracks,
            binding,
            binding_utilization: utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BridgeTransferEvent, BusSlotEvent, RouteRejectEvent};
    use synchro_power::Technology;

    fn spec() -> PriceSpec {
        let tech = Technology::isca2004();
        PriceSpec {
            iteration_rate_hz: 1e6,
            hyperperiod: 100,
            tile_power: TilePowerModel::new(&tech),
            leakage: LeakageModel::new(&tech),
            interconnect: InterconnectModel::new(&tech),
            columns: vec![
                ColumnPricing {
                    chip: 0,
                    column: 0,
                    label: "a".to_owned(),
                    tiles: 4,
                    voltage: 1.0,
                    clock_divider: 1,
                },
                ColumnPricing {
                    chip: 0,
                    column: 1,
                    label: "b".to_owned(),
                    tiles: 2,
                    voltage: 0.8,
                    clock_divider: 2,
                },
            ],
            buses: vec![BusPricing {
                chip: 0,
                geometry: BusGeometry::horizontal(&tech),
                voltage: 1.0,
                scheduled_slots_per_iteration: 10,
            }],
            bridge_energy_pj_per_word: 2.0,
            bridge_scheduled_slots_per_iteration: 0,
        }
    }

    fn tick(column: u32, tick: u64, count: u64) -> TraceEvent {
        TraceEvent::DividerTick {
            chip: 0,
            column,
            tick,
            count,
        }
    }

    #[test]
    fn attribution_matches_hand_arithmetic() {
        let spec = spec();
        let events = vec![
            tick(0, 0, 50),
            tick(1, 1, 25),
            TraceEvent::ZormStall {
                chip: 0,
                column: 1,
                tick: 3,
                cycles: 5,
            },
            BusSlotEvent {
                chip: 0,
                tick: 10,
                from: 0,
                to: vec![1],
                words: 8,
                count: 8,
            }
            .into(),
            BridgeTransferEvent {
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                tick: 20,
                words: 4,
                count: 2,
            }
            .into(),
        ];
        let ledger = attribute(&events, &spec, 100);
        // 100 ticks of a 100-tick hyperperiod at 1 MHz = 1 µs.
        assert!((ledger.duration_s - 1e-6).abs() < 1e-18);
        let expected_col0 = spec.tile_power.energy_per_cycle_nj(1.0) * 1e-9 * 4.0 * 50.0;
        assert!((ledger.columns[0].dynamic_j - expected_col0).abs() < 1e-18);
        assert_eq!(ledger.columns[1].cycles, 25);
        assert_eq!(ledger.columns[1].zorm_stall_cycles, 5);
        let word = spec
            .interconnect
            .word_energy_j(&spec.buses[0].geometry, 1.0);
        assert!((ledger.buses[0].energy_j - word * 8.0).abs() < 1e-18);
        assert!((ledger.bridges[0].energy_j - 2.0e-12 * 4.0).abs() < 1e-24);
        assert_eq!(ledger.unpriced_events, 0);
        assert!(ledger.total_j() > 0.0);
        assert!(ledger.render("test").contains("horizontal bus"));
    }

    #[test]
    fn batched_and_per_event_streams_price_identically() {
        let spec = spec();
        let batched = vec![tick(0, 9, 10)];
        let unbatched: Vec<TraceEvent> = (0..10).map(|i| tick(0, i, 1)).collect();
        let a = attribute(&batched, &spec, 10);
        let b = attribute(&unbatched, &spec, 10);
        assert_eq!(a.columns[0].cycles, b.columns[0].cycles);
        assert!((a.total_j() - b.total_j()).abs() < 1e-18);
    }

    #[test]
    fn unpriced_hardware_is_counted_not_dropped_silently() {
        let spec = spec();
        let ledger = attribute(&[tick(7, 0, 3)], &spec, 10);
        assert_eq!(ledger.unpriced_events, 1);
    }

    #[test]
    fn timeline_buckets_conserve_energy() {
        let spec = spec();
        let events = vec![tick(0, 10, 20), tick(0, 90, 20)];
        let ledger = attribute(&events, &spec, 100);
        let timeline = power_timeline(&events, &spec, 100, 4);
        assert_eq!(timeline.samples.len(), 4);
        let bucketed_j: f64 = timeline
            .samples
            .iter()
            .map(|s| s.total_mw() * 1e-3 * timeline.bucket_seconds)
            .sum();
        assert!(
            (bucketed_j - ledger.total_j()).abs() <= 1e-9 * ledger.total_j(),
            "{bucketed_j} vs {}",
            ledger.total_j()
        );
        // First and last buckets carry the compute; middle two only leak.
        assert!(timeline.samples[0].compute_mw > 0.0);
        assert_eq!(timeline.samples[1].compute_mw, 0.0);
        assert!(timeline.samples[3].compute_mw > 0.0);
    }

    #[test]
    fn bottleneck_finds_the_binding_resource_and_headroom() {
        let spec = spec();
        // Column 0 (divider 1) runs 80 of its 100-cycle budget; column 1
        // (divider 2) runs 10 of 50; the bus moves 2 of 10 slots.
        let events = vec![
            tick(0, 0, 80),
            tick(1, 1, 10),
            BusSlotEvent {
                chip: 0,
                tick: 5,
                from: 0,
                to: vec![1],
                words: 2,
                count: 2,
            }
            .into(),
        ];
        let report = bottlenecks(&events, &spec, 100);
        assert_eq!(report.binding.as_deref(), Some("chip0/col0 a (\u{f7}1)"));
        assert!((report.binding_utilization - 0.8).abs() < 1e-12);
        assert_eq!(report.headroom_ticks_per_hyperperiod, 20);
        assert!(report.render("t").contains("binding resource"));
    }

    #[test]
    fn rejection_ledger_ranks_classes_and_explains() {
        let ledger = RejectionLedger::new();
        for _ in 0..3 {
            ledger.record(
                &RouteRejectEvent {
                    code: "period_overflow",
                    detail: "46 words exceed 25 slots".to_owned(),
                }
                .into(),
            );
        }
        ledger.record(
            &RouteRejectEvent {
                code: "budget_too_small",
                detail: "tile budget 4 cannot host 24 column groups".to_owned(),
            }
            .into(),
        );
        ledger.record(&TraceEvent::Counter {
            name: "explore.beam.groupings_comm_pruned",
            delta: 2,
        });
        ledger.record(&TraceEvent::Counter {
            name: "explore.beam.states_pruned",
            delta: 99,
        });
        let classes = ledger.classes();
        assert_eq!(classes[0].code, "period_overflow");
        assert_eq!(classes[0].count, 3);
        assert_eq!(
            ledger.dominant().expect("non-empty").code,
            "period_overflow"
        );
        assert_eq!(ledger.total(), 6);
        let text = ledger.explain("why deep_pipeline fails on one chip");
        assert!(text.contains("1. period_overflow \u{d7}3"));
        assert!(text.contains("comm_prune"));
        assert!(!text.contains("states_pruned"));
    }

    #[test]
    fn empty_ledger_explains_nothing_gracefully() {
        let ledger = RejectionLedger::new();
        assert!(ledger.is_empty());
        assert!(ledger.dominant().is_none());
        assert!(ledger.explain("t").contains("no rejections"));
    }
}

/// The indexed pricing against the scan-per-event [`reference`] on random
/// specs and streams: duplicate `(chip, column)` rows, sparse chip ids,
/// chips without a bus, and events naming unknown hardware.
#[cfg(test)]
mod oracle_properties {
    use super::*;
    use crate::{BridgeTransferEvent, BusSlotEvent};
    use proptest::prelude::*;
    use synchro_power::Technology;

    /// Sparse chip ids: the spec draws from the first five, events from
    /// all seven (the last two are never priced).
    const CHIPS: [u32; 7] = [0, 1, 3, 7, 1_000, 5, 99];

    fn bits(word: u64, shift: u32, modulus: u64) -> u64 {
        (word >> shift) % modulus
    }

    fn spec_from(rows: &[u64], buses: &[u64], shape: u64) -> PriceSpec {
        let tech = Technology::isca2004();
        PriceSpec {
            iteration_rate_hz: [0.0, 1e3, 2.5e5, 1e6][bits(shape, 0, 4) as usize],
            hyperperiod: bits(shape, 8, 200),
            tile_power: TilePowerModel::new(&tech),
            leakage: LeakageModel::new(&tech),
            interconnect: InterconnectModel::new(&tech),
            columns: rows
                .iter()
                .enumerate()
                .map(|(i, &w)| ColumnPricing {
                    chip: CHIPS[bits(w, 0, 5) as usize],
                    column: bits(w, 8, 6) as u32,
                    label: format!("row{i}"),
                    tiles: bits(w, 16, 9) as u32,
                    voltage: 0.6 + bits(w, 24, 60) as f64 * 0.01,
                    clock_divider: bits(w, 32, 6) as u32,
                })
                .collect(),
            buses: buses
                .iter()
                .map(|&w| BusPricing {
                    chip: CHIPS[bits(w, 0, 5) as usize],
                    geometry: BusGeometry::horizontal(&tech),
                    voltage: 0.6 + bits(w, 8, 60) as f64 * 0.01,
                    scheduled_slots_per_iteration: bits(w, 16, 40),
                })
                .collect(),
            bridge_energy_pj_per_word: bits(shape, 16, 50) as f64 * 0.25,
            bridge_scheduled_slots_per_iteration: bits(shape, 24, 8),
        }
    }

    fn event_from(w: u64) -> TraceEvent {
        let chip = CHIPS[bits(w, 4, 7) as usize];
        let column = bits(w, 8, 8) as u32;
        let tick = bits(w, 12, 5_000);
        let count = bits(w, 28, 300);
        match bits(w, 0, 7) {
            0 | 1 => TraceEvent::DividerTick {
                chip,
                column,
                tick,
                count,
            },
            2 => TraceEvent::ZormStall {
                chip,
                column,
                tick,
                cycles: count,
            },
            3 => BusSlotEvent {
                chip,
                tick,
                from: column,
                to: vec![column + 1],
                words: count,
                count: 1 + bits(w, 40, 4),
            }
            .into(),
            4 => BridgeTransferEvent {
                lane: bits(w, 40, 3) as u32,
                from_chip: chip,
                to_chip: column,
                tick,
                words: count,
                count: 1,
            }
            .into(),
            5 => TraceEvent::ColumnFiring {
                chip,
                column,
                tick,
                count,
            },
            _ => TraceEvent::Counter {
                name: "explore.states_pruned",
                delta: count,
            },
        }
    }

    /// Every field of a ledger, f64s by their bits.
    fn ledger_bits(l: &EnergyLedger) -> Vec<String> {
        let mut out = vec![format!(
            "{} {} {}",
            l.reference_ticks,
            l.duration_s.to_bits(),
            l.unpriced_events
        )];
        out.extend(l.columns.iter().map(|c| {
            format!(
                "{} {} {} {} {} {} {}",
                c.chip,
                c.column,
                c.label,
                c.cycles,
                c.zorm_stall_cycles,
                c.dynamic_j.to_bits(),
                c.leakage_j.to_bits()
            )
        }));
        out.extend(
            l.buses
                .iter()
                .map(|b| format!("{} {} {}", b.chip, b.words, b.energy_j.to_bits())),
        );
        out.extend(l.bridges.iter().map(|b| {
            format!(
                "{} {} {} {} {}",
                b.lane,
                b.from_chip,
                b.to_chip,
                b.words,
                b.energy_j.to_bits()
            )
        }));
        out
    }

    fn bottleneck_bits(r: &BottleneckReport) -> Vec<String> {
        let mut out = vec![format!(
            "{} {:?} {} {}",
            r.hyperperiod,
            r.binding,
            r.binding_utilization.to_bits(),
            r.headroom_ticks_per_hyperperiod
        )];
        out.extend(
            r.tracks
                .iter()
                .map(|t| format!("{} {} {} {}", t.label, t.used, t.capacity, t.stall_cycles)),
        );
        out
    }

    fn timeline_bits(t: &PowerTimeline) -> Vec<String> {
        let mut out = vec![format!("{} {}", t.bucket_ticks, t.bucket_seconds.to_bits())];
        out.extend(t.samples.iter().map(|s| {
            format!(
                "{} {} {} {}",
                s.start_tick,
                s.compute_mw.to_bits(),
                s.interconnect_mw.to_bits(),
                s.leakage_mw.to_bits()
            )
        }));
        out
    }

    proptest! {
        /// Indexed pricing is bit-identical to the scan-per-event oracle:
        /// every ledger f64, `unpriced_events`, track loads, binding
        /// label, headroom and timeline sample.
        #[test]
        fn indexed_pricing_matches_the_linear_scan_oracle(
            rows in prop::collection::vec(any::<u64>(), 0..12),
            buses in prop::collection::vec(any::<u64>(), 0..4),
            shape in any::<u64>(),
            stream in prop::collection::vec(any::<u64>(), 0..300),
            reference_ticks in 0u64..6_000,
            buckets in 0usize..9,
        ) {
            let spec = spec_from(&rows, &buses, shape);
            let events: Vec<TraceEvent> = stream.iter().map(|&w| event_from(w)).collect();
            prop_assert_eq!(
                ledger_bits(&attribute(&events, &spec, reference_ticks)),
                ledger_bits(&reference::attribute(&events, &spec, reference_ticks))
            );
            prop_assert_eq!(
                bottleneck_bits(&bottlenecks(&events, &spec, reference_ticks)),
                bottleneck_bits(&reference::bottlenecks(&events, &spec, reference_ticks))
            );
            prop_assert_eq!(
                timeline_bits(&power_timeline(&events, &spec, reference_ticks, buckets)),
                timeline_bits(&reference::power_timeline(
                    &events,
                    &spec,
                    reference_ticks,
                    buckets
                ))
            );
        }
    }

    #[test]
    fn duplicate_rows_price_at_the_first_match() {
        // Two rows for chip 7 column 2 at different voltages: the events
        // bill the first, the second stays empty.
        let mut spec = spec_from(&[], &[], 3);
        for voltage in [0.9, 1.1] {
            spec.columns.push(ColumnPricing {
                chip: 7,
                column: 2,
                label: format!("{voltage}"),
                tiles: 2,
                voltage,
                clock_divider: 1,
            });
        }
        let tick = |count| TraceEvent::DividerTick {
            chip: 7,
            column: 2,
            tick: 0,
            count,
        };
        let ledger = attribute(&[tick(3), tick(4)], &spec, 100);
        assert_eq!(ledger.columns[0].cycles, 7);
        assert_eq!(ledger.columns[1].cycles, 0);
        assert_eq!(ledger.unpriced_events, 0);
        // Neighbouring ids on the same or an absent chip stay unpriced.
        let stray = [
            TraceEvent::DividerTick {
                chip: 7,
                column: 3,
                tick: 0,
                count: 1,
            },
            TraceEvent::DividerTick {
                chip: 6,
                column: 2,
                tick: 0,
                count: 1,
            },
        ];
        assert_eq!(attribute(&stray, &spec, 100).unpriced_events, 2);
    }
}
