//! Property and end-to-end suite for the multi-chip board path.
//!
//! Properties: chip-to-chip bridge transport conserves tokens (simulated
//! bridge words match the analytic per-iteration flows, lane for lane),
//! compiled bridge schedules replay conflict-free, and a board of one
//! chip is bit-identical to the legacy single-chip pipeline.
//!
//! The pinned end-to-end scenario is the issue's tentpole: the 24-stage
//! deep pipeline is rejected on one chip (46 cross words against the
//! reference 25-slot TDM frame) but partitions feasibly across 2–4
//! chips, executes bit-identically on both tiers, and reports priced
//! bridge occupancy.

use std::sync::Arc;

use proptest::prelude::*;
use synchroscalar::apps::{deep_pipeline, reference_graph, Application, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::experiments;
use synchroscalar::explorer::{explore, explore_board, BoardSearch, CommSpec, ExplorerConfig};
use synchroscalar::mapper::{self, BoardConfig, ExecutionTier, MapperError, MapperOptions};
use synchroscalar::power::{
    BusGeometry, InterconnectModel, LeakageModel, Technology, TilePowerModel,
};
use synchroscalar::router::RouteError;
use synchroscalar::sdf::{Mapping, SdfGraph};
use synchroscalar::sim::FaultPlan;
use synchroscalar::trace::analyze::{BusPricing, ColumnPricing, PriceSpec};
use synchroscalar::trace::{normalize, RingBufferSink, Trace, TraceEvent};

const RATE_CHOICES: [(u64, u64); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];

/// A rate-consistent chain of `cycles.len()` actors, placed across
/// `chips` board chips in contiguous runs.
fn split_chain(
    cycles: &[u64],
    caps: &[u32],
    rates: &[(u64, u64)],
    splits: &[usize],
) -> (SdfGraph, Mapping) {
    let mut graph = SdfGraph::new();
    let mut mapping = Mapping::new();
    let mut prev = None;
    for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
        let actor = graph.add_actor(format!("a{i}"), c, cap);
        if let Some(p) = prev {
            let (produce, consume) = rates[i - 1];
            graph.add_edge(p, actor, produce, consume, 0).unwrap();
        }
        let chip = splits.iter().filter(|&&s| i >= s).count();
        mapping.place_on_chip(chip, actor, cap, 1.0);
        prev = Some(actor);
    }
    (graph, mapping)
}

proptest! {
    /// Every word a producing chip emits arrives at the consuming chip:
    /// the simulated bridge traffic equals the analytic per-iteration
    /// flows scaled by the iteration count, lane totals sum to the whole,
    /// every chip fires exactly per the repetition vector, and the
    /// compiled bridge/bus schedules replay conflict-free.
    #[test]
    fn bridge_transport_conserves_tokens_and_stays_conflict_free(
        cycles in prop::collection::vec(1u64..60, 3..6),
        cap_picks in prop::collection::vec(0usize..3, 3..6),
        rate_picks in prop::collection::vec(0usize..4, 2..5),
        iterations in 1u64..5,
        split_a in 1usize..3,
        split_b in 0usize..4,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> =
            rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        // One or two cut points inside the chain → boards of 2 or 3 chips.
        let split_a = split_a.min(n - 1);
        let mut splits = vec![split_a];
        if split_b > split_a && split_b < n {
            splits.push(split_b);
        }
        let (graph, mapping) = split_chain(&cycles[..n], &caps, &rates, &splits);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            tier: ExecutionTier::Fast,
            ..MapperOptions::default()
        };
        let mut compiled =
            match mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default()) {
                Ok(c) => c,
                // Rejections (e.g. oversubscribed frames at extreme rates)
                // are covered by the equivalence suite; conservation is a
                // property of accepted boards.
                Err(_) => return Ok(()),
            };
        prop_assert!(compiled.route().bridge().validate().is_ok());
        for chip_route in compiled.route().chips() {
            prop_assert!(chip_route.validate().is_ok());
        }
        let report = match compiled.execute() {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        prop_assert!(report.firings_exact());
        prop_assert_eq!(report.bridge_words, report.predicted_bridge_words);
        prop_assert_eq!(
            report.lane_words.iter().sum::<u64>(),
            report.bridge_words,
            "lane totals must cover the whole bridge traffic"
        );
        prop_assert!(report.occupied_bridge_slots <= report.scheduled_bridge_slots);
        // Default lanes move one word per cycle, so occupied cycles and
        // words coincide.
        prop_assert_eq!(report.occupied_bridge_slots, report.bridge_words);
    }

    /// A mapping placed entirely on chip 0 must behave identically
    /// whether compiled through the legacy single-chip entry point or as
    /// a board of one: same execution report, same chip statistics.
    #[test]
    fn single_chip_board_matches_the_legacy_path_bit_for_bit(
        cycles in prop::collection::vec(1u64..60, 2..5),
        cap_picks in prop::collection::vec(0usize..3, 2..5),
        rate_picks in prop::collection::vec(0usize..4, 1..4),
        iterations in 1u64..5,
        fast in any::<bool>(),
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> =
            rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = split_chain(&cycles[..n], &caps, &rates, &[]);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            tier: if fast { ExecutionTier::Fast } else { ExecutionTier::Interpreted },
            ..MapperOptions::default()
        };
        let legacy = mapper::compile(&graph, &mapping, &options);
        let board = mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default());
        let (mut legacy, mut board) = match (legacy, board) {
            (Ok(l), Ok(b)) => (l, b),
            (l, b) => {
                prop_assert_eq!(format!("{:?}", l.err()), format!("{:?}", b.err()));
                return Ok(());
            }
        };
        prop_assert_eq!(board.chips(), 1);
        match (legacy.execute(), board.execute()) {
            (Ok(chip_report), Ok(board_report)) => {
                prop_assert_eq!(board_report.chips.len(), 1);
                prop_assert_eq!(&board_report.chips[0], &chip_report);
                prop_assert_eq!(board_report.bridge_words, 0);
                prop_assert_eq!(board_report.scheduled_bridge_slots, 0);
                prop_assert_eq!(legacy.chip().stats(), board.board().chip(0).unwrap().stats());
                prop_assert_eq!(
                    legacy.chip().column_stats(),
                    board.board().chip(0).unwrap().column_stats()
                );
                prop_assert_eq!(
                    legacy.chip().horizontal_stats(),
                    board.board().chip(0).unwrap().horizontal_stats()
                );
            }
            (l, b) => {
                prop_assert_eq!(format!("{:?}", l.err()), format!("{:?}", b.err()));
            }
        }
    }
}

/// The tentpole, pinned end to end: one chip cannot carry the 24-stage
/// deep pipeline's traffic, a 2-chip partition (found inside a 4-chip
/// allowance) can, both execution tiers agree bit for bit on the board,
/// and the bridge's occupancy and priced power land in the experiments
/// table.
#[test]
fn deep_pipeline_is_rejected_on_one_chip_but_boards_feasibly() {
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let options = MapperOptions {
        iterations: 4,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };

    // 1. Single chip: the tile search succeeds, the router refuses — 46
    //    cross words cannot fit the reference 25-slot frame.
    let single = explore(
        &graph,
        &ExplorerConfig::new(rate, 64).single_actor_columns(),
    )
    .expect("the tile/power search itself succeeds");
    let (realized, flat) = single.best.realize(&graph).expect("winners realize");
    let err = mapper::compile(&realized, &flat, &options).unwrap_err();
    assert!(
        matches!(
            err,
            MapperError::Route(RouteError::PeriodOverflow {
                demand: 46,
                capacity: 25
            })
        ),
        "{err}"
    );

    // 2. Board exploration: chip counts are searched ascending, so the
    //    4-chip allowance settles on the cheapest feasible board — two
    //    chips with one 2-word bridge crossing.
    let comm = CommSpec::from_clock(1, options.bus_frequency_hz, rate);
    let config = ExplorerConfig::new(rate, 40)
        .single_actor_columns()
        .with_comm(comm)
        .with_board(BoardSearch::new(4));
    let board = explore_board(&graph, &config).expect("2 chips suffice");
    assert_eq!(board.chip_count(), 2);
    assert_eq!(board.bridge_words_per_iteration, 2);
    assert_eq!(
        (board.chips[0].start, board.chips[0].end, board.chips[1].end),
        (0, 12, 24),
        "the balanced middle split wins"
    );
    let mapping = board.mapping();
    assert!(mapping.validate_on_board(&graph, 2).is_empty());
    assert_eq!(mapping.placements().len(), 24);

    // 3. Both tiers execute the partition bit-identically.
    let compile_on = |tier| {
        let options = MapperOptions {
            tier,
            ..options.clone()
        };
        mapper::compile_board(&graph, &mapping, &options, &BoardConfig::default())
            .expect("the partition compiles")
    };
    let mut interpreted = compile_on(ExecutionTier::Interpreted);
    let mut fast = compile_on(ExecutionTier::Fast);
    let a = interpreted.execute().unwrap();
    let b = fast.execute().unwrap();
    assert_eq!(a, b, "tiers diverge on the board");
    for chip in 0..2 {
        assert_eq!(
            interpreted.board().chip(chip).unwrap().stats(),
            fast.board().chip(chip).unwrap().stats()
        );
    }
    assert!(a.firings_exact());
    assert_eq!(a.bridge_words, 2 * 4, "2 words/iteration × 4 iterations");
    assert_eq!(a.bridge_words, a.predicted_bridge_words);
    assert!(a.occupied_bridge_slots >= a.bridge_words);

    // 4. The experiments table reports the same story with the bridge
    //    traffic priced.
    let rows = experiments::board_summary(&Technology::isca2004());
    assert!(rows[0].rejection.is_some());
    let feasible: Vec<_> = rows.iter().filter(|r| r.rejection.is_none()).collect();
    assert!(!feasible.is_empty());
    for row in feasible {
        assert_eq!(row.chips, 2);
        assert!(row.bridge_power_mw > 0.0);
        assert!(row.bridge_utilization > 0.0);
    }
}

/// What the one-chip view of a board must not change, on all six
/// reference profiles and both tiers: the single-chip price spec (no
/// bridge rating, although the board default rates 2 pJ/word), the
/// report-counter energy to the bit, the single-chip utilization labels,
/// and a bridge-lane kill — a chip has no lanes — running exactly like
/// plain execution, without a `FaultLaneKilled` event.  The expected
/// values are the single-chip definitions spelled out.
#[test]
fn the_chip_view_keeps_single_chip_pricing_labels_and_lane_semantics() {
    let tech = Technology::isca2004();
    for app in Application::all() {
        let reference = reference_graph(app);
        for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
            let case = format!("{} [{tier:?}]", app.name());
            let plain_ring = Arc::new(RingBufferSink::new(1 << 22));
            let faulted_ring = Arc::new(RingBufferSink::new(1 << 22));
            let compile_with = |trace| {
                let options = MapperOptions {
                    iterations: 2,
                    iteration_rate_hz: reference.iteration_rate_hz,
                    tech: tech.clone(),
                    tier,
                    trace,
                    ..MapperOptions::default()
                };
                mapper::compile(&reference.graph, &reference.mapping, &options)
                    .expect("reference mappings compile")
            };
            let mut compiled = compile_with(Trace::to(plain_ring.clone()));
            let report = compiled.execute().expect("reference mappings execute");
            let plans = compiled.plans();
            let bus_voltage = plans.iter().map(|p| p.voltage).fold(0.0, f64::max);

            let expected = PriceSpec {
                iteration_rate_hz: compiled.iteration_rate_hz(),
                hyperperiod: compiled.hyperperiod(),
                tile_power: TilePowerModel::new(&tech),
                leakage: LeakageModel::new(&tech),
                interconnect: InterconnectModel::new(&tech),
                columns: plans
                    .iter()
                    .map(|p| ColumnPricing {
                        chip: 0,
                        column: p.column as u32,
                        label: p.name.clone(),
                        tiles: p.tiles,
                        voltage: p.voltage,
                        clock_divider: p.clock_divider,
                    })
                    .collect(),
                buses: vec![BusPricing {
                    chip: 0,
                    geometry: BusGeometry::horizontal(&tech),
                    voltage: bus_voltage,
                    scheduled_slots_per_iteration: compiled.route().scheduled_slots(),
                }],
                bridge_energy_pj_per_word: 0.0,
                bridge_scheduled_slots_per_iteration: 0,
            };
            assert_eq!(
                format!("{:?}", compiled.price_spec(&tech)),
                format!("{expected:?}"),
                "{case}: price spec"
            );

            let duration_s = report.reference_ticks as f64
                / (compiled.hyperperiod() as f64 * compiled.iteration_rate_hz());
            let tile_power = TilePowerModel::new(&tech);
            let leakage = LeakageModel::new(&tech);
            let (mut compute_j, mut leakage_j) = (0.0, 0.0);
            for (plan, stats) in plans.iter().zip(&report.column_stats) {
                compute_j += tile_power.energy_per_cycle_nj(plan.voltage)
                    * 1e-9
                    * f64::from(plan.tiles)
                    * stats.cycles as f64;
                leakage_j += leakage.power_mw(plan.tiles, plan.voltage) * 1e-3 * duration_s;
            }
            let interconnect_j = InterconnectModel::new(&tech)
                .word_energy_j(&BusGeometry::horizontal(&tech), bus_voltage)
                * report.occupied_bus_slots as f64;
            let energy = compiled.execution_energy(&report, &tech);
            assert_eq!(
                [
                    energy.compute_j.to_bits(),
                    energy.leakage_j.to_bits(),
                    energy.interconnect_j.to_bits(),
                    energy.duration_s.to_bits(),
                ],
                [
                    compute_j.to_bits(),
                    leakage_j.to_bits(),
                    interconnect_j.to_bits(),
                    duration_s.to_bits(),
                ],
                "{case}: report energy"
            );

            let labels: Vec<String> = compiled
                .utilization(&report)
                .into_iter()
                .map(|t| t.label)
                .collect();
            let mut expected_labels: Vec<String> = plans
                .iter()
                .enumerate()
                .map(|(i, p)| format!("col{i} {} (\u{f7}{})", p.name, p.clock_divider))
                .collect();
            expected_labels.push("horizontal bus".to_owned());
            assert_eq!(labels, expected_labels, "{case}: utilization rows");

            let mut faulted = compile_with(Trace::to(faulted_ring.clone()));
            let mut plan = FaultPlan::none();
            plan.kill_lane(0, faulted.hyperperiod());
            let run = faulted
                .execute_faulted(&plan)
                .expect("lane kills never fail");
            assert_eq!(run.fault, None, "{case}");
            assert_eq!(run.report, report, "{case}: lane kill vs plain report");
            assert_eq!(faulted.chip().stats(), compiled.chip().stats(), "{case}");
            assert_eq!(faulted_ring.dropped(), 0);
            let events = faulted_ring.events();
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::FaultLaneKilled { .. })),
                "{case}: a chip has no lane to kill"
            );
            assert_eq!(
                normalize(&events),
                normalize(&plain_ring.events()),
                "{case}: lane kill vs plain event stream"
            );
        }
    }
}
