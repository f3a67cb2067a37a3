//! Differential equivalence suite for the fast execution tier: for
//! generated `(SdfGraph, Mapping, MapperOptions)` triples, executing the
//! compiled chip on the batched fast tier must produce bit-identical
//! statistics — `ChipStats`, per-column `ColumnStats`, per-column vertical
//! `BusStats` and the horizontal-bus counters — to the cycle-level
//! interpreter, and identical error values where the interpreter fails.
//!
//! Pinned regressions cover the halt-boundary tick, the ZORM fallback
//! (whose stall pattern is not uniform per firing) and `BusProgram`
//! tail-drain semantics when a program outlives its columns.

use std::sync::Arc;

use proptest::prelude::*;
use synchroscalar::apps::{deep_pipeline, DEEP_PIPELINE_RATE_HZ};
use synchroscalar::explorer::{explore, CommSpec, ExplorerConfig};
use synchroscalar::mapper::{self, ExecutionTier, MapperError, MapperOptions};
use synchroscalar::sdf::{Mapping, SdfGraph};
use synchroscalar::trace::{normalize, RingBufferSink, Trace};

/// Small produce/consume pairs keep repetition vectors (and hyperperiods)
/// bounded while still exercising co-prime divider pairs.
const RATE_CHOICES: [(u64, u64); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];

/// A rate-consistent chain: actor `i` feeds `i + 1`.
fn chain(cycles: &[u64], caps: &[u32], rates: &[(u64, u64)]) -> (SdfGraph, Mapping) {
    let mut graph = SdfGraph::new();
    let mut mapping = Mapping::new();
    let mut prev = None;
    for (i, (&c, &cap)) in cycles.iter().zip(caps).enumerate() {
        let actor = graph.add_actor(format!("a{i}"), c, cap);
        if let Some(p) = prev {
            let (produce, consume) = rates[i - 1];
            graph.add_edge(p, actor, produce, consume, 0).unwrap();
        }
        mapping.place(actor, cap, 1.0);
        prev = Some(actor);
    }
    (graph, mapping)
}

/// Compile and execute `(graph, mapping, options)` on both tiers and
/// require bit-identical outcomes: equal execution reports and chip
/// statistics on success, equal error values on failure.
fn check_tiers(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
) -> Result<(), TestCaseError> {
    let interpreted_ring = Arc::new(RingBufferSink::new(1 << 20));
    let fast_ring = Arc::new(RingBufferSink::new(1 << 20));
    let interpreted_options = MapperOptions {
        tier: ExecutionTier::Interpreted,
        trace: Trace::to(interpreted_ring.clone()),
        ..options.clone()
    };
    let fast_options = MapperOptions {
        tier: ExecutionTier::Fast,
        trace: Trace::to(fast_ring.clone()),
        ..options.clone()
    };
    let interpreted = mapper::compile(graph, mapping, &interpreted_options);
    let fast = mapper::compile(graph, mapping, &fast_options);
    let (mut interpreted, mut fast) = match (interpreted, fast) {
        (Ok(i), Ok(f)) => (i, f),
        (i, f) => {
            // Compilation outcome must not depend on the tier.
            prop_assert_eq!(format!("{:?}", i.err()), format!("{:?}", f.err()));
            return Ok(());
        }
    };
    match (interpreted.execute(), fast.execute()) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a, &b, "execution reports diverge");
            prop_assert_eq!(interpreted.chip().stats(), fast.chip().stats());
            prop_assert_eq!(
                interpreted.chip().column_stats(),
                fast.chip().column_stats()
            );
            prop_assert_eq!(
                interpreted.chip().horizontal_stats(),
                fast.chip().horizontal_stats()
            );
            for i in 0..interpreted.chip().columns() {
                prop_assert_eq!(
                    interpreted.chip().column(i).unwrap().bus_stats(),
                    fast.chip().column(i).unwrap().bus_stats(),
                    "column {} vertical bus diverges",
                    i
                );
            }
            prop_assert!(fast.chip().all_halted());
            // A rerun covers the already-halted entry path on both tiers.
            let a2 = interpreted.execute();
            let b2 = fast.execute();
            prop_assert_eq!(format!("{:?}", a2), format!("{:?}", b2));
            prop_assert_eq!(interpreted.chip().stats(), fast.chip().stats());
            // Both tiers must emit the same event stream modulo batching:
            // the interpreter records each occurrence, the fast tier one
            // aggregated event per track; normalization folds both to the
            // same canonical totals.
            prop_assert_eq!(interpreted_ring.dropped(), 0, "trace ring overflowed");
            prop_assert_eq!(
                normalize(&interpreted_ring.events()),
                normalize(&fast_ring.events()),
                "tier trace streams diverge"
            );
            prop_assert!(fast_ring.len() <= interpreted_ring.len());
        }
        (a, b) => {
            // The fast tier must reproduce the interpreter's error value
            // (stats are compared only on success: the interpreter leaves
            // a failed chip partially run, the fast tier untouched).
            prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err()));
        }
    }
    Ok(())
}

proptest! {
    /// Default options (no ZORM, single-split bus): every generated valid
    /// triple executes bit-identically on both tiers.
    #[test]
    fn fast_tier_is_bit_identical_on_plain_chains(
        cycles in prop::collection::vec(1u64..60, 2..5),
        cap_picks in prop::collection::vec(0usize..3, 2..5),
        rate_picks in prop::collection::vec(0usize..4, 1..4),
        iterations in 1u64..6,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            ..MapperOptions::default()
        };
        check_tiers(&graph, &mapping, &options)?;
    }

    /// Capped dividers force the ZORM fallback, whose stall pattern is
    /// *not* uniform per firing; the closed form must still match the
    /// interpreter exactly — including on `Incomplete` error paths.
    #[test]
    fn fast_tier_matches_under_zorm_fallback(
        cycles in prop::collection::vec(1u64..40, 2..4),
        rate_picks in prop::collection::vec(0usize..4, 1..3),
        iterations in 1u64..4,
        max_divider in 1u32..10,
    ) {
        let n = cycles.len().min(rate_picks.len() + 1);
        let caps = vec![1u32; n];
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            max_divider,
            ..MapperOptions::default()
        };
        check_tiers(&graph, &mapping, &options)?;
    }

    /// Wider buses, multi-tile columns (with their DOU distribution
    /// patterns) and varying iteration counts agree too.
    #[test]
    fn fast_tier_matches_across_bus_widths_and_tile_counts(
        cycles in prop::collection::vec(1u64..30, 2..5),
        cap_picks in prop::collection::vec(0usize..3, 2..5),
        rate_picks in prop::collection::vec(0usize..4, 1..4),
        iterations in 1u64..4,
        splits in 1usize..4,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [2u32, 3, 4][i]).collect();
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            bus_splits: splits,
            ..MapperOptions::default()
        };
        check_tiers(&graph, &mapping, &options)?;
    }
}

/// Halt-boundary pin: with co-prime dividers 6 and 7 over a 126-tick
/// hyperperiod, both columns observe their `HALT` at tick
/// `iterations × 126` and the interpreter leaves the reference clock one
/// past it — NOT rounded up to a window multiple.  The fast tier must
/// land on exactly the same tick.
#[test]
fn halt_boundary_reference_tick_is_exact_not_a_window_multiple() {
    let mut graph = SdfGraph::new();
    let a = graph.add_actor("a", 4, 4);
    let b = graph.add_actor("b", 6, 4);
    graph.add_edge(a, b, 2, 3, 0).unwrap();
    let mut mapping = Mapping::new();
    mapping.place(a, 4, 1.0);
    mapping.place(b, 2, 1.0);
    for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
        let options = MapperOptions {
            iterations: 5,
            tier,
            ..MapperOptions::default()
        };
        let mut compiled = mapper::compile(&graph, &mapping, &options).unwrap();
        let report = compiled.execute().unwrap();
        assert_eq!(report.hyperperiod, 126);
        assert_eq!(
            report.reference_ticks,
            5 * 126 + 1,
            "{tier:?}: the halt-observing tick is one past the last window"
        );
        assert_eq!(report.firing_counts, vec![15, 10]);
    }
}

/// ZORM pin: the capped-divider fallback throttles the fast actor; both
/// tiers must agree on every counter including the (non-uniform) stall
/// total.
#[test]
fn zorm_fallback_stall_totals_are_bit_identical() {
    let mut graph = SdfGraph::new();
    let a = graph.add_actor("fast", 1, 1);
    let b = graph.add_actor("slow", 97, 1);
    graph.add_edge(a, b, 50, 1, 0).unwrap();
    let mut mapping = Mapping::new();
    mapping.place(a, 1, 1.0);
    mapping.place(b, 1, 1.0);
    let compile_on = |tier| {
        mapper::compile(
            &graph,
            &mapping,
            &MapperOptions {
                max_divider: 8,
                iterations: 2,
                tier,
                ..MapperOptions::default()
            },
        )
        .unwrap()
    };
    let mut interpreted = compile_on(ExecutionTier::Interpreted);
    let mut fast = compile_on(ExecutionTier::Fast);
    assert!(
        interpreted.plans().iter().any(|p| p.rate_matcher.is_some()),
        "the capped divider must force a ZORM fallback"
    );
    let a = interpreted.execute().unwrap();
    let b = fast.execute().unwrap();
    assert_eq!(a, b);
    let stalls: Vec<u64> = fast
        .chip()
        .column_stats()
        .iter()
        .map(|c| c.rate_match_stalls)
        .collect();
    assert_eq!(
        stalls,
        interpreted
            .chip()
            .column_stats()
            .iter()
            .map(|c| c.rate_match_stalls)
            .collect::<Vec<u64>>()
    );
    assert!(
        stalls.iter().any(|&s| s > 0),
        "the throttled column must actually stall"
    );
}

/// Bus-tail pin: a `BusProgram` that outlives its columns.  The
/// interpreter drains the remaining periods slot by slot through
/// `finish_bus_program`; the fast tier drains them in bulk.  The
/// horizontal counters must agree bit for bit.
#[test]
fn bus_program_tail_drain_is_bit_identical() {
    use synchroscalar::isa::{DataReg, ProgramBuilder};
    use synchroscalar::sim::fast::{ColumnBatch, FastTier, FiringProfile};
    use synchroscalar::sim::{BusProgram, BusSlot, Chip, Column, ColumnConfig};

    let build = || {
        let mut builder = ProgramBuilder::new();
        builder.counted_loop(5, |b| {
            b.load_imm(DataReg::new(7), 1);
            b.send();
            b.recv(DataReg::new(2));
        });
        builder.halt();
        let program = builder.build().unwrap();
        let config = ColumnConfig::isca2004().with_divider(2);
        let mut chip = Chip::new();
        chip.add_column(Column::new(config.clone(), program.clone(), None));
        chip.add_column(Column::new(config.clone(), program.clone(), None));
        // 40 periods of 11 ticks: the columns halt after ~31 reference
        // ticks, leaving most of the program as tail.
        let slots = vec![
            BusSlot {
                tick: 3,
                from: 0,
                to: vec![1],
                words: 2,
            },
            BusSlot {
                tick: 9,
                from: 1,
                to: vec![0],
                words: 1,
            },
        ];
        chip.load_bus_program(BusProgram::new(11, 40, 5, slots))
            .unwrap();
        (chip, config, program)
    };

    let (mut interpreted, ..) = build();
    while !interpreted.all_halted() {
        interpreted.run(1024).unwrap();
    }
    interpreted.finish_bus_program().unwrap();

    let (mut batched, config, program) = build();
    let profile = FiringProfile::measure(&config, &program, None, 3, 5).unwrap();
    let mut tier = FastTier::new();
    for column in 0..2 {
        tier.push(ColumnBatch {
            column,
            firings: 5,
            profile: profile.clone(),
        });
    }
    tier.run(&mut batched).unwrap();

    assert_eq!(interpreted.stats(), batched.stats());
    assert_eq!(interpreted.horizontal_stats(), batched.horizontal_stats());
    assert_eq!(interpreted.column_stats(), batched.column_stats());
    let horizontal = batched.horizontal_stats().unwrap();
    assert_eq!(horizontal.word_transfers, 40 * 3, "all 40 periods drained");
    assert_eq!(horizontal.scheduled_slots, 40 * 5);
}

/// Compile a chip-qualified mapping as a board and execute it on both
/// tiers, requiring bit-identical outcomes: equal board execution
/// reports, equal per-chip statistics and bridge counters on success,
/// equal error values on failure.
fn check_board_tiers(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
) -> Result<(), TestCaseError> {
    let board_config = mapper::BoardConfig::default();
    let interpreted_ring = Arc::new(RingBufferSink::new(1 << 20));
    let fast_ring = Arc::new(RingBufferSink::new(1 << 20));
    let compile_on = |tier, ring: &Arc<RingBufferSink>| {
        let options = MapperOptions {
            tier,
            trace: Trace::to(ring.clone()),
            ..options.clone()
        };
        mapper::compile_board(graph, mapping, &options, &board_config)
    };
    let interpreted = compile_on(ExecutionTier::Interpreted, &interpreted_ring);
    let fast = compile_on(ExecutionTier::Fast, &fast_ring);
    let (mut interpreted, mut fast) = match (interpreted, fast) {
        (Ok(i), Ok(f)) => (i, f),
        (i, f) => {
            prop_assert_eq!(format!("{:?}", i.err()), format!("{:?}", f.err()));
            return Ok(());
        }
    };
    match (interpreted.execute(), fast.execute()) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a, &b, "board execution reports diverge");
            prop_assert_eq!(
                interpreted.board().bridge_stats(),
                fast.board().bridge_stats()
            );
            prop_assert_eq!(interpreted.board().lane_words(), fast.board().lane_words());
            prop_assert_eq!(
                interpreted.board().reference_cycles(),
                fast.board().reference_cycles()
            );
            for chip in 0..interpreted.board().chips() {
                let ic = interpreted.board().chip(chip).unwrap();
                let fc = fast.board().chip(chip).unwrap();
                prop_assert_eq!(ic.stats(), fc.stats(), "chip {} stats diverge", chip);
                prop_assert_eq!(ic.column_stats(), fc.column_stats());
                prop_assert_eq!(ic.horizontal_stats(), fc.horizontal_stats());
            }
            prop_assert!(fast.board().all_halted());
            // A rerun covers the already-halted entry path on both tiers.
            let a2 = interpreted.execute();
            let b2 = fast.execute();
            prop_assert_eq!(format!("{:?}", a2), format!("{:?}", b2));
            prop_assert_eq!(
                interpreted.board().bridge_stats(),
                fast.board().bridge_stats()
            );
            // Event-stream equivalence extends board-wide: bridge
            // transfers and every chip's events, modulo batching.
            prop_assert_eq!(interpreted_ring.dropped(), 0, "trace ring overflowed");
            prop_assert_eq!(
                normalize(&interpreted_ring.events()),
                normalize(&fast_ring.events()),
                "board tier trace streams diverge"
            );
        }
        (a, b) => {
            prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err()));
        }
    }
    Ok(())
}

proptest! {
    /// The board driver's fast path must be bit-identical to the
    /// interpreted co-advance for chains split across two chips at an
    /// arbitrary boundary, including the bridge counters.
    #[test]
    fn board_tiers_are_bit_identical_on_split_chains(
        cycles in prop::collection::vec(1u64..60, 2..5),
        cap_picks in prop::collection::vec(0usize..3, 2..5),
        rate_picks in prop::collection::vec(0usize..4, 1..4),
        iterations in 1u64..5,
        split_pick in 0usize..8,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, single) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(single.validate(&graph).is_empty());
        let split = 1 + split_pick % (n - 1);
        let mut mapping = Mapping::new();
        for (i, p) in single.placements().iter().enumerate() {
            mapping.place_on_chip(usize::from(i >= split), p.actor, p.tiles, p.efficiency);
        }
        let options = MapperOptions {
            iterations,
            ..MapperOptions::default()
        };
        check_board_tiers(&graph, &mapping, &options)?;
    }
}

/// Execute `(graph, mapping, options)` under `plan` on all three chip
/// drivers — event-driven interpreted, naive ticked, and the fast tier
/// (which falls back to the interpreted driver whenever an event could
/// fire) — and require bit-identical `FaultedRun`s and chip statistics.
/// The structured outcome must also match the machine state: `fault:
/// None` ⇔ every column halted, `Some(Stalled)` ⇔ a survivor starved.
/// The event-driven and ticked drivers must also emit the same raw trace,
/// event for event and in order, across the kill and the watchdog cut.
/// That the proptest returns at all is the watchdog's termination
/// guarantee — a wedged chip must classify, never spin.
fn check_faulted_tiers(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
    plan: &synchroscalar::sim::FaultPlan,
) -> Result<(), TestCaseError> {
    let compile_on = |tier, trace| {
        mapper::compile(
            graph,
            mapping,
            &MapperOptions {
                tier,
                trace,
                ..options.clone()
            },
        )
    };
    // The event-driven and ticked drivers are traced: their raw streams
    // (not just normalized ones) must agree event for event.
    let interpreted_ring = Arc::new(RingBufferSink::new(1 << 20));
    let ticked_ring = Arc::new(RingBufferSink::new(1 << 20));
    let interpreted = compile_on(
        ExecutionTier::Interpreted,
        Trace::to(interpreted_ring.clone()),
    );
    let fast = compile_on(ExecutionTier::Fast, Trace::off());
    let ticked = compile_on(ExecutionTier::Interpreted, Trace::to(ticked_ring.clone()));
    let (mut interpreted, mut fast, mut ticked) = match (interpreted, fast, ticked) {
        (Ok(i), Ok(f), Ok(t)) => (i, f, t),
        (i, f, _) => {
            prop_assert_eq!(format!("{:?}", i.err()), format!("{:?}", f.err()));
            return Ok(());
        }
    };
    let a = interpreted.execute_faulted(plan);
    let b = fast.execute_faulted(plan);
    let c = ticked.execute_faulted_ticked(plan);
    prop_assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "interpreted vs fast faulted runs diverge"
    );
    prop_assert_eq!(
        format!("{a:?}"),
        format!("{c:?}"),
        "event-driven vs ticked faulted runs diverge"
    );
    if let Ok(run) = a {
        match &run.fault {
            None => prop_assert!(
                interpreted.chip().all_halted(),
                "a clean outcome requires a fully halted chip"
            ),
            Some(synchroscalar::sim::SimFault::Stalled { .. }) => prop_assert!(
                !interpreted.chip().all_halted(),
                "a stall verdict requires a live survivor"
            ),
        }
        prop_assert_eq!(interpreted.chip().stats(), fast.chip().stats());
        prop_assert_eq!(interpreted.chip().stats(), ticked.chip().stats());
        prop_assert_eq!(
            interpreted.chip().column_stats(),
            fast.chip().column_stats()
        );
        prop_assert_eq!(
            interpreted.chip().column_stats(),
            ticked.chip().column_stats()
        );
        prop_assert_eq!(
            interpreted.chip().horizontal_stats(),
            fast.chip().horizontal_stats()
        );
    }
    prop_assert_eq!(interpreted_ring.dropped(), 0);
    let events = interpreted_ring.events();
    prop_assert!(!events.is_empty(), "the traced run emitted nothing");
    let ticked_events = ticked_ring.events();
    prop_assert_eq!(events.len(), ticked_events.len());
    for (i, (a, b)) in events.iter().zip(&ticked_events).enumerate() {
        prop_assert_eq!(
            a,
            b,
            "event-driven vs ticked raw streams differ at event {}",
            i
        );
    }
    Ok(())
}

proptest! {
    /// Fault-injected chains: killing any column at any tick produces
    /// bit-identical runs on the event-driven, ticked and fast drivers —
    /// identical statistics up to the injection point and the same
    /// structured post-fault outcome (clean drain or watchdog stall).
    #[test]
    fn faulted_runs_are_bit_identical_across_all_three_drivers(
        cycles in prop::collection::vec(1u64..40, 2..4),
        cap_picks in prop::collection::vec(0usize..3, 2..4),
        rate_picks in prop::collection::vec(0usize..4, 1..3),
        iterations in 1u64..4,
        victim in 0usize..4,
        kill_tick in 0u64..500,
    ) {
        let n = cycles.len().min(cap_picks.len()).min(rate_picks.len() + 1);
        let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| [1u32, 2, 4][i]).collect();
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            ..MapperOptions::default()
        };
        let mut plan = synchroscalar::sim::FaultPlan::none();
        plan.kill_column(0, victim % n, kill_tick);
        check_faulted_tiers(&graph, &mapping, &options, &plan)?;
    }

    /// The empty plan is exactly plain execution (the delegation path),
    /// and a fault scheduled far past the halt never fires: both must be
    /// bit-identical to `execute()` on every driver.
    #[test]
    fn unfired_faults_leave_runs_bit_identical_to_plain_execution(
        cycles in prop::collection::vec(1u64..40, 2..4),
        rate_picks in prop::collection::vec(0usize..4, 1..3),
        iterations in 1u64..4,
        fire_pick in 0usize..2,
    ) {
        let n = cycles.len().min(rate_picks.len() + 1);
        let caps = vec![1u32; n];
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, mapping) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(mapping.validate(&graph).is_empty());
        let options = MapperOptions {
            iterations,
            ..MapperOptions::default()
        };
        let mut plan = synchroscalar::sim::FaultPlan::none();
        if fire_pick == 1 {
            plan.kill_column(0, 0, u64::MAX);
        }
        let mut plain = mapper::compile(&graph, &mapping, &options).unwrap();
        let baseline = plain.execute();
        let mut faulted = mapper::compile(&graph, &mapping, &options).unwrap();
        let run = faulted.execute_faulted(&plan);
        match (baseline, run) {
            (Ok(report), Ok(run)) => {
                prop_assert_eq!(run.fault, None);
                prop_assert_eq!(&run.report, &report);
                prop_assert_eq!(plain.chip().stats(), faulted.chip().stats());
            }
            (a, b) => {
                let b_report = b.map(|r| r.report);
                prop_assert_eq!(format!("{:?}", a), format!("{:?}", b_report));
            }
        }
        check_faulted_tiers(&graph, &mapping, &options, &plan)?;
    }
}

/// Board-level fault differential: kill a column of either chip or a
/// bridge lane mid-run; the event-driven, naive ticked and fast board
/// drivers must produce bit-identical `FaultedBoardRun`s, per-chip
/// statistics and bridge counters, and the structured outcome must match
/// the board state.  As for single chips, the event-driven and ticked
/// drivers must also emit the same raw trace, event for event and in
/// order.
fn check_faulted_board_tiers(
    graph: &SdfGraph,
    mapping: &Mapping,
    options: &MapperOptions,
    plan: &synchroscalar::sim::FaultPlan,
) -> Result<(), TestCaseError> {
    let board_config = mapper::BoardConfig::default();
    let compile_on = |tier, trace| {
        mapper::compile_board(
            graph,
            mapping,
            &MapperOptions {
                tier,
                trace,
                ..options.clone()
            },
            &board_config,
        )
    };
    let interpreted_ring = Arc::new(RingBufferSink::new(1 << 20));
    let ticked_ring = Arc::new(RingBufferSink::new(1 << 20));
    let (mut interpreted, mut fast, mut ticked) = match (
        compile_on(
            ExecutionTier::Interpreted,
            Trace::to(interpreted_ring.clone()),
        ),
        compile_on(ExecutionTier::Fast, Trace::off()),
        compile_on(ExecutionTier::Interpreted, Trace::to(ticked_ring.clone())),
    ) {
        (Ok(i), Ok(f), Ok(t)) => (i, f, t),
        (i, f, _) => {
            prop_assert_eq!(format!("{:?}", i.err()), format!("{:?}", f.err()));
            return Ok(());
        }
    };
    let a = interpreted.execute_faulted(plan);
    let b = fast.execute_faulted(plan);
    let c = ticked.execute_faulted_ticked(plan);
    prop_assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "board faulted runs diverge"
    );
    prop_assert_eq!(
        format!("{a:?}"),
        format!("{c:?}"),
        "event-driven vs ticked board faulted runs diverge"
    );
    if let Ok(run) = a {
        match &run.fault {
            None => prop_assert!(interpreted.board().all_halted()),
            Some(synchroscalar::sim::SimFault::Stalled { .. }) => {
                prop_assert!(!interpreted.board().all_halted())
            }
        }
        for other in [&fast, &ticked] {
            prop_assert_eq!(
                interpreted.board().bridge_stats(),
                other.board().bridge_stats()
            );
            prop_assert_eq!(interpreted.board().lane_words(), other.board().lane_words());
            for chip in 0..interpreted.board().chips() {
                let ic = interpreted.board().chip(chip).unwrap();
                let oc = other.board().chip(chip).unwrap();
                prop_assert_eq!(ic.stats(), oc.stats(), "chip {} stats diverge", chip);
                prop_assert_eq!(ic.column_stats(), oc.column_stats());
            }
        }
    }
    prop_assert_eq!(interpreted_ring.dropped(), 0);
    let events = interpreted_ring.events();
    prop_assert!(!events.is_empty(), "the traced run emitted nothing");
    let ticked_events = ticked_ring.events();
    prop_assert_eq!(events.len(), ticked_events.len());
    for (i, (a, b)) in events.iter().zip(&ticked_events).enumerate() {
        prop_assert_eq!(
            a,
            b,
            "event-driven vs ticked raw board streams differ at event {}",
            i
        );
    }
    Ok(())
}

proptest! {
    /// Split chains with a mid-run column or bridge-lane kill: the board
    /// drivers agree bit for bit on statistics and structured outcome,
    /// and always terminate (lane kills drop traffic but never starve a
    /// column — `recv` never blocks).
    #[test]
    fn faulted_board_runs_are_bit_identical_on_both_tiers(
        cycles in prop::collection::vec(1u64..40, 2..4),
        rate_picks in prop::collection::vec(0usize..4, 1..3),
        iterations in 1u64..4,
        split_pick in 0usize..4,
        victim in 0usize..4,
        lane_pick in 0usize..2,
        kill_tick in 0u64..500,
    ) {
        let n = cycles.len().min(rate_picks.len() + 1);
        let caps = vec![2u32; n];
        let rates: Vec<(u64, u64)> = rate_picks[..n - 1].iter().map(|&i| RATE_CHOICES[i]).collect();
        let (graph, single) = chain(&cycles[..n], &caps, &rates);
        prop_assume!(single.validate(&graph).is_empty());
        let split = 1 + split_pick % (n - 1);
        let mut mapping = Mapping::new();
        for (i, p) in single.placements().iter().enumerate() {
            mapping.place_on_chip(usize::from(i >= split), p.actor, p.tiles, p.efficiency);
        }
        let options = MapperOptions {
            iterations,
            ..MapperOptions::default()
        };
        let mut plan = synchroscalar::sim::FaultPlan::none();
        if lane_pick == 1 {
            plan.kill_lane(0, kill_tick);
        } else {
            let chip = usize::from(victim % n >= split);
            let column = if chip == 0 { victim % n } else { victim % n - split };
            plan.kill_column(chip, column, kill_tick);
        }
        check_faulted_board_tiers(&graph, &mapping, &options, &plan)?;
    }
}

/// Reference-profile pin: for all six paper applications, the interpreted
/// and fast tiers must emit bit-identical normalized event streams — and
/// actually emit something (divider ticks at minimum), so a silently
/// disconnected trace cannot masquerade as equivalence.
#[test]
fn reference_profiles_emit_identical_event_streams_on_both_tiers() {
    use synchroscalar::apps::{reference_graph, Application};

    for app in Application::all() {
        let reference = reference_graph(app);
        let run = |tier| {
            let ring = Arc::new(RingBufferSink::new(1 << 22));
            let options = MapperOptions {
                iterations: 2,
                iteration_rate_hz: reference.iteration_rate_hz,
                tier,
                trace: Trace::to(ring.clone()),
                ..MapperOptions::default()
            };
            let mut compiled = mapper::compile_board(
                &reference.graph,
                &reference.mapping,
                &options,
                &mapper::BoardConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{app:?} failed to compile: {e}"));
            compiled
                .execute()
                .unwrap_or_else(|e| panic!("{app:?} failed to execute: {e}"));
            assert_eq!(ring.dropped(), 0, "{app:?}: trace ring overflowed");
            ring.events()
        };
        let interpreted = run(ExecutionTier::Interpreted);
        let fast = run(ExecutionTier::Fast);
        assert!(
            !interpreted.is_empty(),
            "{app:?}: interpreted run emitted no events"
        );
        assert_eq!(
            normalize(&interpreted),
            normalize(&fast),
            "{app:?}: tier trace streams diverge"
        );
        assert!(
            fast.len() <= interpreted.len(),
            "{app:?}: the fast tier must batch, not expand, the stream"
        );
    }
}

/// Tier-divergence pin: a fault scheduled past the tick budget never
/// fires, so every driver must return plain `execute`'s verdict.  The
/// fused `deep_pipeline` best mapping at budget 80 (full rate, 8 frames)
/// halts at tick 299,892,737, past its budget of ten 27,711,120-tick
/// hyperperiod windows.  The ticked driver is left out: ticking ~3·10⁸
/// reference ticks one by one is too slow for the suite.
#[test]
fn unfired_faults_past_the_budget_return_the_plain_verdict_on_every_tier() {
    let graph = deep_pipeline();
    let rate = DEEP_PIPELINE_RATE_HZ;
    let bus = MapperOptions::default();
    let comm = CommSpec::from_clock(bus.bus_splits as u32, bus.bus_frequency_hz, rate);
    let config = ExplorerConfig::new(rate, 80)
        .with_threads(1)
        .with_comm(comm);
    let best = explore(&graph, &config).unwrap().best;
    let compile_on = |tier| {
        let options = MapperOptions {
            iterations: 8,
            iteration_rate_hz: rate,
            tier,
            ..MapperOptions::default()
        };
        mapper::compile_explored(&graph, &best, &options).unwrap()
    };
    let expect_incomplete = |what: &str, outcome: Result<(), MapperError>| {
        assert!(
            matches!(outcome, Err(MapperError::Incomplete { ticks: 277_111_200 })),
            "{what}: {outcome:?}"
        );
    };

    let mut plain = compile_on(ExecutionTier::Interpreted);
    assert_eq!(plain.hyperperiod(), 27_711_120);
    expect_incomplete("plain execute", plain.execute().map(drop));

    for tier in [ExecutionTier::Interpreted, ExecutionTier::Fast] {
        let mut compiled = compile_on(tier);
        let mut plan = synchroscalar::sim::FaultPlan::none();
        plan.kill_column(0, 0, 100 * compiled.hyperperiod());
        expect_incomplete(
            &format!("{tier:?} execute_faulted"),
            compiled.execute_faulted(&plan).map(drop),
        );
    }
}
