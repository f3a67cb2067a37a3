//! Property-based tests of the automatic mapping / design-space
//! exploration engine: every solution respects the tile budget, agrees
//! with `Mapping::requirements` at the target rate, stays inside the VF
//! envelope when flagged feasible, and the Pareto frontier is actually
//! non-dominated; plus the pinned regression that auto-mapping the DDC
//! and the 802.11a receiver reproduces the paper's Table 4 frequencies.

use proptest::prelude::*;
use synchro_power::{Technology, VfCurve};
use synchro_sdf::SdfGraph;
use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::explorer::{
    dominates, evaluate_mapping, explore, CommSpec, ExplorerConfig, SearchStrategy,
};
use synchroscalar::mapper;

/// Build a pipeline chain with the given per-actor costs and parallelism
/// caps (1:1 edges).
fn chain(cycles: &[u64], caps: &[u32]) -> SdfGraph {
    let mut graph = SdfGraph::new();
    let mut prev = None;
    for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
        let actor = graph.add_actor(format!("a{i}"), c, cap);
        if let Some(p) = prev {
            graph.add_edge(p, actor, 1, 1, 0).unwrap();
        }
        prev = Some(actor);
    }
    graph
}

const CAP_CHOICES: [u32; 6] = [1, 2, 4, 8, 16, 32];

proptest! {
    /// Every solution on the curve respects the budget, round-trips
    /// through `Mapping::requirements`, and feasible solutions stay
    /// inside the VF envelope.
    #[test]
    fn solutions_respect_budget_requirements_and_envelope(
        cycles in prop::collection::vec(1u64..500, 2..6),
        cap_picks in prop::collection::vec(0usize..6, 2..6),
        budget in 4u32..40,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        let rate = 1e6;
        let tech = Technology::isca2004();
        let curve_model = VfCurve::fo4_20(&tech);
        let exploration = explore(&graph, &ExplorerConfig::new(rate, budget)).unwrap();

        prop_assert!(exploration.best.total_tiles <= budget);
        for solution in &exploration.curve {
            prop_assert!(solution.total_tiles <= budget);
            prop_assert_eq!(
                solution.allocation().iter().sum::<u32>(),
                solution.total_tiles
            );
            // Realized mappings are well-formed and reproduce the
            // solution's frequencies at the target rate.
            let (realized, mapping) = solution.realize(&graph).unwrap();
            prop_assert!(mapping.validate(&realized).is_empty());
            let requirements = mapping.requirements(&realized, rate).unwrap();
            for (req, col) in requirements.iter().zip(&solution.columns) {
                let tolerance = 1e-9 * col.frequency_mhz.max(1.0);
                prop_assert!((req.frequency_mhz - col.frequency_mhz).abs() <= tolerance);
            }
            // Feasible solutions fit the supply envelope and their
            // voltage actually sustains the required frequency.
            for col in &solution.columns {
                if solution.feasible {
                    prop_assert!(col.within_envelope);
                    prop_assert!(col.voltage <= tech.max_voltage + 1e-9);
                }
                prop_assert!(
                    curve_model.interpolate(col.voltage) + 1e-6 >= col.frequency_mhz
                );
            }
        }
        // The best feasible solution is no worse than any feasible curve
        // point.
        if exploration.best.feasible {
            for solution in exploration.curve.iter().filter(|s| s.feasible) {
                prop_assert!(exploration.best.power_mw <= solution.power_mw + 1e-9);
            }
        }
    }

    /// The frontier is mutually non-dominated and no curve point
    /// dominates a frontier point.
    #[test]
    fn frontier_is_non_dominated(
        cycles in prop::collection::vec(1u64..2_000, 2..7),
        cap_picks in prop::collection::vec(0usize..6, 2..7),
        budget in 4u32..48,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        let exploration = explore(&graph, &ExplorerConfig::new(1e6, budget)).unwrap();

        prop_assert!(!exploration.frontier.is_empty());
        for (i, a) in exploration.frontier.iter().enumerate() {
            for (j, b) in exploration.frontier.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw),
                        "frontier point {j} dominates frontier point {i}"
                    );
                }
            }
            // The frontier covers achievable designs: no curve point of
            // the same feasibility class may dominate a frontier point.
            for b in exploration.curve.iter().filter(|s| s.feasible == a.feasible) {
                prop_assert!(
                    !dominates(b.total_tiles, b.power_mw, a.total_tiles, a.power_mw),
                    "curve point dominates a frontier point"
                );
            }
        }
    }

    /// The exhaustive and beam engines agree on the best power and the
    /// frontier whenever the beam is wide enough.
    #[test]
    fn beam_matches_exhaustive_when_wide(
        cycles in prop::collection::vec(1u64..800, 2..6),
        cap_picks in prop::collection::vec(0usize..6, 2..6),
        budget in 4u32..32,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        let base = ExplorerConfig::new(1e6, budget);
        let exhaustive = explore(
            &graph,
            &base.clone().with_strategy(SearchStrategy::Exhaustive),
        )
        .unwrap();
        let beam = explore(
            &graph,
            &base.with_strategy(SearchStrategy::Beam {
                width: budget as usize + 1,
            }),
        )
        .unwrap();
        let tolerance = 1e-9 * exhaustive.best.power_mw.max(1.0);
        prop_assert!((exhaustive.best.power_mw - beam.best.power_mw).abs() <= tolerance);
        prop_assert_eq!(exhaustive.frontier.len(), beam.frontier.len());
        for (a, b) in exhaustive.frontier.iter().zip(&beam.frontier) {
            prop_assert_eq!(a.total_tiles, b.total_tiles);
            prop_assert!((a.power_mw - b.power_mw).abs() <= 1e-9 * a.power_mw.max(1.0));
        }
    }

    /// Search counters are accumulated per worker and merged once, so the
    /// totals — mappings evaluated, groupings examined, states pruned —
    /// must be identical no matter how many threads the work fans across,
    /// for both engines.
    #[test]
    fn stats_totals_are_independent_of_thread_count(
        cycles in prop::collection::vec(1u64..1_000, 2..6),
        cap_picks in prop::collection::vec(0usize..6, 2..6),
        budget in 4u32..32,
    ) {
        let n = cycles.len().min(cap_picks.len());
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
        let graph = chain(&cycles[..n], &caps);
        for strategy in [
            SearchStrategy::Exhaustive,
            SearchStrategy::Beam { width: budget as usize + 1 },
            SearchStrategy::Beam { width: 4 },
        ] {
            let run = |threads: usize| {
                explore(
                    &graph,
                    &ExplorerConfig::new(1e6, budget)
                        .with_strategy(strategy)
                        .with_threads(threads),
                )
                .unwrap()
                .stats
            };
            let one = run(1);
            for threads in [2usize, 8] {
                let many = run(threads);
                prop_assert_eq!(one.mappings_evaluated, many.mappings_evaluated);
                prop_assert_eq!(one.groupings_examined, many.groupings_examined);
                prop_assert_eq!(one.states_pruned, many.states_pruned);
            }
        }
    }
}

/// Pinned regression: auto-mapping the DDC at the Table 4 tile budget
/// reproduces the published per-column frequencies exactly and costs no
/// more than the hand-built mapping.
#[test]
fn auto_mapping_ddc_reproduces_table4() {
    let (graph, reference_mapping, rate) = mapper::ddc_reference();
    let config = ExplorerConfig::new(rate, 50).single_actor_columns();
    let exploration = explore(&graph, &config).unwrap();
    let winner = exploration
        .solution_for_tiles(50)
        .expect("50 tiles reachable");
    assert_eq!(winner.allocation(), vec![8, 8, 2, 16, 16]);
    for (freq, expected) in winner
        .frequencies_mhz()
        .iter()
        .zip([120.0, 200.0, 40.0, 380.0, 370.0])
    {
        assert!(
            (freq - expected).abs() < 1e-9,
            "{freq} MHz vs Table 4 {expected} MHz"
        );
    }
    let reference = evaluate_mapping(&graph, &reference_mapping, &config).unwrap();
    assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
}

/// Pinned regression: auto-mapping the 802.11a receiver at the Table 4
/// tile budget reproduces the published per-column frequencies exactly.
#[test]
fn auto_mapping_wifi_reproduces_table4() {
    let (graph, reference_mapping, rate) = mapper::wifi_reference();
    let config = ExplorerConfig::new(rate, 20).single_actor_columns();
    let exploration = explore(&graph, &config).unwrap();
    let winner = exploration
        .solution_for_tiles(20)
        .expect("20 tiles reachable");
    assert_eq!(winner.allocation(), vec![2, 1, 16, 1]);
    for (freq, expected) in winner
        .frequencies_mhz()
        .iter()
        .zip([90.0, 60.0, 540.0, 330.0])
    {
        assert!(
            (freq - expected).abs() < 1e-9,
            "{freq} MHz vs Table 4 {expected} MHz"
        );
    }
    let reference = evaluate_mapping(&graph, &reference_mapping, &config).unwrap();
    assert!(exploration.best.power_mw <= reference.power_mw + 1e-9);
}

/// One pinned fused `deep_pipeline` exploration: the request, then the
/// best solution's power bits, actors per column group and tiles per
/// column group, then `[mappings_evaluated, groupings_examined,
/// states_pruned, groupings_comm_pruned]`.
struct DeepPipelinePin {
    budget: u32,
    rate: (u32, u32),
    power_bits: u64,
    group_sizes: &'static [usize],
    allocation: &'static [u32],
    counters: [u64; 4],
}

const fn pin(
    budget: u32,
    rate: (u32, u32),
    power_bits: u64,
    group_sizes: &'static [usize],
    allocation: &'static [u32],
    counters: [u64; 4],
) -> DeepPipelinePin {
    DeepPipelinePin {
        budget,
        rate,
        power_bits,
        group_sizes,
        allocation,
        counters,
    }
}

/// Fused `deep_pipeline` explorations (24 actors, so `Auto` runs the beam
/// engine) at budgets 20/40/80 × rates 1, ¾ and ½ of the reference rate,
/// comm-pruned against the default horizontal bus.
const DEEP_PIPELINE_PINS: [DeepPipelinePin; 9] = [
    pin(
        20,
        (1, 1),
        0x40c6_d1f5_025c_36f4,
        &[6, 4, 4, 5, 5],
        &[4, 4, 4, 4, 4],
        [21971, 1930, 21178, 19],
    ),
    pin(
        20,
        (3, 4),
        0x40b9_2691_099b_3ce6,
        &[6, 3, 5, 2, 6, 2],
        &[4, 4, 4, 2, 4, 2],
        [17451, 1676, 16787, 0],
    ),
    pin(
        20,
        (1, 2),
        0x40a4_0625_e360_da58,
        &[5, 5, 2, 5, 5, 2],
        &[4, 4, 2, 4, 4, 2],
        [18515, 1806, 17810, 0],
    ),
    pin(
        40,
        (1, 1),
        0x40b6_cb60_f4fc_2faa,
        &[1, 2, 3, 1, 2, 2, 3, 1, 1, 1, 2, 3, 2],
        &[1, 4, 4, 2, 4, 4, 4, 2, 2, 1, 4, 4, 4],
        [41770, 4191, 40235, 876],
    ),
    pin(
        40,
        (3, 4),
        0x40a5_ad02_19b5_b3ad,
        &[3, 2, 1, 2, 2, 2, 2, 2, 3, 2, 1, 2],
        &[4, 4, 2, 4, 2, 4, 2, 4, 4, 4, 2, 4],
        [32938, 3869, 31569, 0],
    ),
    pin(
        40,
        (1, 2),
        0x4094_a359_7e31_c55c,
        &[3, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2],
        &[4, 4, 4, 4, 2, 4, 2, 4, 2, 4, 2, 4],
        [38075, 4284, 36552, 0],
    ),
    pin(
        80,
        (1, 1),
        0x40a6_1cda_a233_ad3e,
        &[2, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2],
        &[4, 8, 4, 8, 8, 4, 8, 4, 8, 4, 8, 4, 8],
        [60839, 7397, 58393, 1834],
    ),
    pin(
        80,
        (3, 4),
        0x409b_f9b7_50ed_3602,
        &[2, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2],
        &[4, 8, 4, 8, 8, 4, 8, 4, 8, 4, 8, 4, 8],
        [43303, 5613, 41440, 0],
    ),
    pin(
        80,
        (1, 2),
        0x408d_8fcf_cf3e_49c7,
        &[2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1],
        &[4, 4, 4, 4, 4, 4, 4, 4, 8, 4, 4, 4, 4, 4, 4, 4, 4, 8],
        [50679, 6369, 48535, 0],
    ),
];

/// Pinned regression: the fused `deep_pipeline` beam explorations return
/// the same best solution and the same search counters, bit for bit, at
/// one and at eight threads.
#[test]
fn fused_deep_pipeline_explorations_are_pinned() {
    let graph = deep_pipeline();
    let bus = mapper::MapperOptions::default();
    for pin in &DEEP_PIPELINE_PINS {
        let rate = DEEP_PIPELINE_RATE_HZ * f64::from(pin.rate.0) / f64::from(pin.rate.1);
        let comm = CommSpec::from_clock(bus.bus_splits as u32, bus.bus_frequency_hz, rate);
        for threads in [1usize, 8] {
            let config = ExplorerConfig::new(rate, pin.budget)
                .with_threads(threads)
                .with_comm(comm);
            let exploration = explore(&graph, &config).unwrap();
            let best = &exploration.best;
            let case = format!(
                "budget {} rate {:?} threads {threads}",
                pin.budget, pin.rate
            );
            assert_eq!(best.power_mw.to_bits(), pin.power_bits, "{case}");
            let group_sizes: Vec<usize> = best.columns.iter().map(|c| c.actors.len()).collect();
            assert_eq!(group_sizes, pin.group_sizes, "{case}");
            assert_eq!(best.allocation(), pin.allocation, "{case}");
            let s = &exploration.stats;
            assert_eq!(
                [
                    s.mappings_evaluated,
                    s.groupings_examined,
                    s.states_pruned,
                    s.groupings_comm_pruned
                ],
                pin.counters,
                "{case}"
            );
        }
    }
}
