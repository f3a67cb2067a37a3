//! Multi-chip boards: bridge-aware flow derivation and TDM scheduling.
//!
//! A [`BoardSpec`] generalizes a single [`BusSpec`] to a
//! board of N Synchroscalar chips joined by directed chip-to-chip
//! [`BridgeLane`]s.  Intra-chip traffic is scheduled exactly as on a
//! single chip (one [`RouteSchedule`] per chip);
//! inter-chip traffic is packed onto the bridge lanes with the same
//! deterministic greedy first-fit discipline, producing a conflict-free
//! periodic [`BridgeSchedule`].  A board of one chip compiles to exactly
//! the single-chip schedule — the legacy path is a thin wrapper over this
//! one, which the equivalence tests pin bit for bit.

use crate::{BusSpec, ColumnFlow, RouteError, RouteSchedule};
use synchro_sdf::{Mapping, SdfGraph};

/// One directed chip-to-chip bridge lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeLane {
    /// Producing chip.
    pub from: usize,
    /// Consuming chip.
    pub to: usize,
    /// Words the lane carries per bridge cycle.
    pub width_words: u64,
    /// Fixed hop latency in bridge cycles (reported by the simulator's
    /// bridge replay; it does not consume slot capacity).
    pub latency_cycles: u64,
    /// Energy to move one word across the lane, in picojoules (bridges are
    /// rated per word, unlike the on-chip bus whose energy follows wire
    /// capacitance and supply voltage).
    pub energy_pj_per_word: f64,
}

/// Description of a board: per-chip buses plus the bridge lanes joining
/// them and the shared bridge TDM period (bridge cycles per graph
/// iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    chips: Vec<BusSpec>,
    lanes: Vec<BridgeLane>,
    bridge_period: u64,
}

impl BoardSpec {
    /// A board with explicit lanes.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::InvalidSpec`] for an empty board, a lane
    /// whose endpoints fall outside the board or coincide, or a zero-width
    /// lane.
    pub fn new(
        chips: Vec<BusSpec>,
        lanes: Vec<BridgeLane>,
        bridge_period: u64,
    ) -> Result<Self, RouteError> {
        if chips.is_empty() {
            return Err(RouteError::InvalidSpec {
                reason: "a board needs at least one chip",
            });
        }
        for lane in &lanes {
            if lane.from >= chips.len() || lane.to >= chips.len() {
                return Err(RouteError::InvalidSpec {
                    reason: "bridge lane endpoint outside the board",
                });
            }
            if lane.from == lane.to {
                return Err(RouteError::InvalidSpec {
                    reason: "bridge lane joins a chip to itself",
                });
            }
            if lane.width_words == 0 {
                return Err(RouteError::InvalidSpec {
                    reason: "bridge lane needs a non-zero width",
                });
            }
        }
        Ok(BoardSpec {
            chips,
            lanes,
            bridge_period,
        })
    }

    /// A board of one chip with no bridge lanes — the legacy single-chip
    /// configuration expressed in board form.
    pub fn single(chip: BusSpec) -> Self {
        BoardSpec {
            chips: vec![chip],
            lanes: Vec::new(),
            bridge_period: 0,
        }
    }

    /// A fully connected board: one lane per ordered chip pair, all with
    /// the same width, latency and energy.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::InvalidSpec`] for an empty board or zero
    /// width.
    pub fn full(
        chips: Vec<BusSpec>,
        width_words: u64,
        latency_cycles: u64,
        energy_pj_per_word: f64,
        bridge_period: u64,
    ) -> Result<Self, RouteError> {
        let n = chips.len();
        let mut lanes = Vec::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    lanes.push(BridgeLane {
                        from,
                        to,
                        width_words,
                        latency_cycles,
                        energy_pj_per_word,
                    });
                }
            }
        }
        Self::new(chips, lanes, bridge_period)
    }

    /// A linear board: lanes between adjacent chips only, in both
    /// directions — non-adjacent traffic is unroutable and reports
    /// [`RouteError::BridgeOversubscribed`] with capacity 0.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::InvalidSpec`] for an empty board or zero
    /// width.
    pub fn linear(
        chips: Vec<BusSpec>,
        width_words: u64,
        latency_cycles: u64,
        energy_pj_per_word: f64,
        bridge_period: u64,
    ) -> Result<Self, RouteError> {
        let n = chips.len();
        let mut lanes = Vec::new();
        for left in 0..n.saturating_sub(1) {
            for (from, to) in [(left, left + 1), (left + 1, left)] {
                lanes.push(BridgeLane {
                    from,
                    to,
                    width_words,
                    latency_cycles,
                    energy_pj_per_word,
                });
            }
        }
        Self::new(chips, lanes, bridge_period)
    }

    /// The board that survives `faults`: failed lanes are removed and
    /// degraded lanes have their width clamped to the fault's cap (a cap
    /// of zero removes the lane) — so the scheduler never places a slot on
    /// dead or over-rated bridge hardware.  Chips and the bridge period
    /// are untouched; per-chip split loss is the bus compiler's dimension
    /// and is applied when the [`BusSpec`]s are built.
    #[must_use]
    pub fn apply_faults(&self, faults: &synchro_sdf::FaultSpec) -> BoardSpec {
        let lanes = self
            .lanes
            .iter()
            .filter(|lane| !faults.lane_failed(lane.from, lane.to))
            .filter_map(|lane| {
                let width = match faults.lane_width_limit(lane.from, lane.to) {
                    Some(cap) => lane.width_words.min(u64::from(cap)),
                    None => lane.width_words,
                };
                (width > 0).then_some(BridgeLane {
                    width_words: width,
                    ..*lane
                })
            })
            .collect();
        BoardSpec {
            chips: self.chips.clone(),
            lanes,
            bridge_period: self.bridge_period,
        }
    }

    /// The per-chip bus descriptions.
    pub fn chips(&self) -> &[BusSpec] {
        &self.chips
    }

    /// The bridge lanes.
    pub fn lanes(&self) -> &[BridgeLane] {
        &self.lanes
    }

    /// Bridge cycles per graph iteration (the bridge TDM period).
    pub fn bridge_period(&self) -> u64 {
        self.bridge_period
    }

    /// Words per period the lanes from `from` to `to` can carry in total.
    pub fn bridge_capacity_between(&self, from: usize, to: usize) -> u64 {
        self.lanes
            .iter()
            .filter(|l| l.from == from && l.to == to)
            .map(|l| l.width_words.saturating_mul(self.bridge_period))
            .fold(0, u64::saturating_add)
    }
}

/// One inter-chip flow: the words one SDF edge moves between columns of
/// two different chips per graph iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeFlow {
    /// Index of the originating SDF edge.
    pub edge: usize,
    /// Producing chip.
    pub from_chip: usize,
    /// Producing column on that chip.
    pub from_column: usize,
    /// Consuming chip.
    pub to_chip: usize,
    /// Consuming column on that chip.
    pub to_column: usize,
    /// Words crossing per graph iteration.
    pub words: u64,
}

/// One slot assignment of a bridge schedule: `cycles` back-to-back bridge
/// cycles on one lane, starting at `cycle` within the period, carrying
/// `words` words of one flow (`words ≤ cycles × width_words`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeSlot {
    /// Index of the lane (into [`BoardSpec::lanes`]).
    pub lane: usize,
    /// First bridge cycle of the slot within the period.
    pub cycle: u64,
    /// Back-to-back bridge cycles the slot occupies.
    pub cycles: u64,
    /// Words the slot carries.
    pub words: u64,
    /// The SDF edge the words belong to.
    pub edge: usize,
}

/// A compiled, conflict-free periodic TDM schedule for the bridge lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct BridgeSchedule {
    lanes: Vec<BridgeLane>,
    period: u64,
    slots: Vec<BridgeSlot>,
}

impl BridgeSchedule {
    /// The lanes the schedule was compiled against.
    pub fn lanes(&self) -> &[BridgeLane] {
        &self.lanes
    }

    /// Bridge cycles per graph iteration.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The slot assignments, in compilation order.
    pub fn slots(&self) -> &[BridgeSlot] {
        &self.slots
    }

    /// Total bridge cycles occupied per period.
    pub fn occupied_slots(&self) -> u64 {
        self.slots.iter().map(|s| s.cycles).sum()
    }

    /// Total bridge cycles reserved per period (`lanes × period`).
    pub fn scheduled_slots(&self) -> u64 {
        (self.lanes.len() as u64).saturating_mul(self.period)
    }

    /// Reserved-but-idle bridge cycles per period.
    pub fn idle_slots(&self) -> u64 {
        self.scheduled_slots().saturating_sub(self.occupied_slots())
    }

    /// Fraction of the bridge frame that carries words (0.0 when empty).
    pub fn utilization(&self) -> f64 {
        let frame = self.scheduled_slots();
        if frame == 0 {
            0.0
        } else {
            self.occupied_slots() as f64 / frame as f64
        }
    }

    /// Words moved per period across all lanes.
    pub fn words(&self) -> u64 {
        self.slots.iter().map(|s| s.words).sum()
    }

    /// Words the schedule moves for SDF edge `edge` per period.
    pub fn words_for_edge(&self, edge: usize) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.edge == edge)
            .map(|s| s.words)
            .sum()
    }

    /// Words the schedule moves from chip `from` to chip `to` per period.
    pub fn words_between(&self, from: usize, to: usize) -> u64 {
        self.slots
            .iter()
            .filter(|s| {
                let lane = self.lanes[s.lane];
                lane.from == from && lane.to == to
            })
            .map(|s| s.words)
            .sum()
    }

    /// Check the schedule's structural invariants: every slot fits its
    /// lane's width, stays inside the period, and no two slots of the same
    /// lane overlap in time.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::InvalidSpec`] naming the violated invariant
    /// (only reachable through a hand-built schedule) or
    /// [`RouteError::PeriodOverflow`] for a slot past the period.
    pub fn validate(&self) -> Result<(), RouteError> {
        let mut by_lane: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.lanes.len()];
        for slot in &self.slots {
            let Some(lane) = self.lanes.get(slot.lane) else {
                return Err(RouteError::InvalidSpec {
                    reason: "bridge slot references a lane outside the board",
                });
            };
            if slot.words > slot.cycles.saturating_mul(lane.width_words) {
                return Err(RouteError::InvalidSpec {
                    reason: "bridge slot carries more words than its cycles allow",
                });
            }
            if slot.cycle.saturating_add(slot.cycles) > self.period {
                return Err(RouteError::PeriodOverflow {
                    demand: slot.cycle.saturating_add(slot.cycles),
                    capacity: self.period,
                });
            }
            by_lane[slot.lane].push((slot.cycle, slot.cycles));
        }
        for intervals in &mut by_lane {
            intervals.sort_unstable();
            for pair in intervals.windows(2) {
                if pair[0].0 + pair[0].1 > pair[1].0 {
                    return Err(RouteError::InvalidSpec {
                        reason: "bridge slots overlap on a lane",
                    });
                }
            }
        }
        Ok(())
    }
}

/// A fully compiled board route: one conflict-free intra-chip schedule
/// per chip plus the bridge schedule for inter-chip traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardRoute {
    spec: BoardSpec,
    chips: Vec<RouteSchedule>,
    bridge: BridgeSchedule,
}

impl BoardRoute {
    /// The board description the route was compiled against.
    pub fn spec(&self) -> &BoardSpec {
        &self.spec
    }

    /// The per-chip intra-chip schedules (index = chip).
    pub fn chips(&self) -> &[RouteSchedule] {
        &self.chips
    }

    /// The bridge schedule.
    pub fn bridge(&self) -> &BridgeSchedule {
        &self.bridge
    }
}

/// Derive the per-iteration flows of a chip-qualified `(graph, mapping)`
/// pair, split into intra-chip column flows (one vector per chip, columns
/// numbered by placement order *within* that chip) and inter-chip bridge
/// flows.
///
/// A mapping that places everything on chip 0 yields exactly
/// [`column_flows`](crate::column_flows) in its single intra-chip vector
/// and no bridge flows — the identity the board-of-one equivalence tests
/// pin.
///
/// # Errors
///
/// Propagates rate-consistency errors and reports
/// [`RouteError::BadPlacement`] when an actor is unplaced or placed twice.
pub fn board_flows(
    graph: &SdfGraph,
    mapping: &Mapping,
) -> Result<(Vec<Vec<ColumnFlow>>, Vec<BridgeFlow>), RouteError> {
    let tokens = graph.tokens_per_iteration()?;
    let chips = mapping.chips();
    // (chip, column-within-chip) of every actor.
    let mut seat_of_actor: Vec<Option<(usize, usize)>> = vec![None; graph.actors().len()];
    let mut columns_on_chip = vec![0usize; chips];
    for p in mapping.placements() {
        if p.actor.0 >= graph.actors().len() {
            return Err(RouteError::BadPlacement { actor: p.actor.0 });
        }
        let column = columns_on_chip[p.chip];
        columns_on_chip[p.chip] += 1;
        if seat_of_actor[p.actor.0].replace((p.chip, column)).is_some() {
            return Err(RouteError::BadPlacement { actor: p.actor.0 });
        }
    }
    if let Some(unplaced) = seat_of_actor.iter().position(Option::is_none) {
        return Err(RouteError::BadPlacement { actor: unplaced });
    }
    let mut intra: Vec<Vec<ColumnFlow>> = vec![Vec::new(); chips];
    let mut bridge = Vec::new();
    for (edge, e) in graph.edges().iter().enumerate() {
        let (from_chip, from_column) = seat_of_actor[e.from.0].expect("checked above");
        let (to_chip, to_column) = seat_of_actor[e.to.0].expect("checked above");
        if from_chip == to_chip {
            if from_column != to_column {
                intra[from_chip].push(ColumnFlow {
                    edge,
                    from: from_column,
                    to: to_column,
                    words: tokens[edge],
                });
            }
        } else {
            bridge.push(BridgeFlow {
                edge,
                from_chip,
                from_column,
                to_chip,
                to_column,
                words: tokens[edge],
            });
        }
    }
    Ok((intra, bridge))
}

/// Compile a chip-qualified `(graph, mapping)` pair against a board:
/// every chip's intra-chip flows become a conflict-free
/// [`RouteSchedule`] on that chip's bus (exactly as
/// [`compile`](crate::compile) would on a single chip), and the
/// inter-chip flows are packed onto the bridge lanes by the same greedy
/// earliest-cursor first-fit, splitting a flow across parallel lanes of
/// its direction when one lane's frame runs out.
///
/// # Errors
///
/// * intra-chip errors propagate verbatim from
///   [`compile_flows`](crate::compile_flows) (so a board of one chip
///   fails exactly like the legacy path),
/// * [`RouteError::BridgeOversubscribed`] — one directed chip pair's
///   traffic exceeds its lanes' word capacity (capacity 0 when the board
///   has no lane in that direction),
/// * [`RouteError::InvalidSpec`] — the mapping references more chips than
///   the board has, or a flow references a column outside its chip's bus.
pub fn compile_board(
    graph: &SdfGraph,
    mapping: &Mapping,
    spec: &BoardSpec,
) -> Result<BoardRoute, RouteError> {
    compile_board_traced(graph, mapping, spec, &synchro_trace::Trace::off())
}

/// [`compile_board`] with observability: a `route.compile_board` phase
/// span, per-chip [`TraceEvent`](synchro_trace::TraceEvent) route slots, a
/// `route.bridge_slots` counter for the bridge packing, and a structured
/// reject event on failure.
///
/// # Errors
///
/// Exactly those of [`compile_board`].
pub fn compile_board_traced(
    graph: &SdfGraph,
    mapping: &Mapping,
    spec: &BoardSpec,
    trace: &synchro_trace::Trace,
) -> Result<BoardRoute, RouteError> {
    let _span = trace.span("route.compile_board");
    let result = compile_board_inner(graph, mapping, spec, trace);
    crate::reject_on_err(trace, &result);
    result
}

fn compile_board_inner(
    graph: &SdfGraph,
    mapping: &Mapping,
    spec: &BoardSpec,
    trace: &synchro_trace::Trace,
) -> Result<BoardRoute, RouteError> {
    let (intra, bridge_flows) = board_flows(graph, mapping)?;
    if intra.len() > spec.chips.len() {
        return Err(RouteError::InvalidSpec {
            reason: "mapping places actors beyond the board's chips",
        });
    }
    let mut chips = Vec::with_capacity(spec.chips.len());
    for (chip, bus) in spec.chips.iter().enumerate() {
        let flows = intra.get(chip).map(Vec::as_slice).unwrap_or(&[]);
        chips.push(crate::compile_flows_inner(flows, bus, trace)?);
    }

    // Fast fail per directed chip pair: total words must fit the
    // direction's word capacity (lanes × width × period).
    let mut demand_between: Vec<(usize, usize, u64)> = Vec::new();
    for f in &bridge_flows {
        match demand_between
            .iter_mut()
            .find(|(from, to, _)| *from == f.from_chip && *to == f.to_chip)
        {
            Some((_, _, words)) => *words += f.words,
            None => demand_between.push((f.from_chip, f.to_chip, f.words)),
        }
    }
    for &(from_chip, to_chip, demand) in &demand_between {
        let capacity = spec.bridge_capacity_between(from_chip, to_chip);
        if demand > capacity {
            return Err(RouteError::BridgeOversubscribed {
                from_chip,
                to_chip,
                demand,
                capacity,
            });
        }
    }

    // Greedy earliest-cursor first-fit over each direction's lanes, in
    // flow input order, mirroring the intra-chip packing discipline.
    let mut cursors = vec![0u64; spec.lanes.len()];
    let mut slots = Vec::new();
    for flow in &bridge_flows {
        let mut remaining = flow.words;
        while remaining > 0 {
            let mut best: Option<usize> = None;
            for (lane, l) in spec.lanes.iter().enumerate() {
                if l.from == flow.from_chip && l.to == flow.to_chip {
                    let earlier = best.is_none_or(|b| cursors[lane] < cursors[b]);
                    if earlier {
                        best = Some(lane);
                    }
                }
            }
            let lane = best.expect("capacity check found a lane for the direction");
            let free_cycles = spec.bridge_period.saturating_sub(cursors[lane]);
            let width = spec.lanes[lane].width_words;
            let free_words = free_cycles.saturating_mul(width);
            if free_words == 0 {
                // Fragmentation left the direction's lanes without room
                // even though the word-capacity pre-check passed.
                return Err(RouteError::BridgeOversubscribed {
                    from_chip: flow.from_chip,
                    to_chip: flow.to_chip,
                    demand: remaining,
                    capacity: 0,
                });
            }
            let words = remaining.min(free_words);
            let cycles = words.div_ceil(width);
            slots.push(BridgeSlot {
                lane,
                cycle: cursors[lane],
                cycles,
                words,
                edge: flow.edge,
            });
            cursors[lane] += cycles;
            remaining -= words;
        }
    }
    trace.counter("route.bridge_slots", slots.len() as u64);
    let bridge = BridgeSchedule {
        lanes: spec.lanes.clone(),
        period: spec.bridge_period,
        slots,
    };
    bridge.validate().expect("compiled schedules are valid");
    Ok(BoardRoute {
        spec: spec.clone(),
        chips,
        bridge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{column_flows, compile};
    use synchro_sdf::{ActorId, Mapping, SdfGraph};

    /// A 4-stage 1:1 chain, 2 words per edge.
    fn chain4() -> SdfGraph {
        let mut g = SdfGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_actor(format!("s{i}"), 10 + i as u64, 8))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 2, 2, 0).unwrap();
        }
        g
    }

    fn split_mapping(boundary: usize) -> Mapping {
        let mut m = Mapping::new();
        for a in 0..4 {
            let chip = usize::from(a >= boundary);
            m.place_on_chip(chip, ActorId(a), 2, 1.0);
        }
        m
    }

    fn two_chip_board() -> BoardSpec {
        let chips = vec![
            BusSpec::broadcast(2, 1, 16).unwrap(),
            BusSpec::broadcast(2, 1, 16).unwrap(),
        ];
        BoardSpec::full(chips, 1, 2, 1.5, 8).unwrap()
    }

    #[test]
    fn apply_faults_removes_failed_lanes_and_clamps_degraded_widths() {
        let spec = two_chip_board();
        assert_eq!(spec.lanes().len(), 2);

        let mut faults = synchro_sdf::FaultSpec::none();
        faults.fail_lane(0, 1);
        let degraded = spec.apply_faults(&faults);
        assert_eq!(degraded.lanes().len(), 1);
        assert_eq!((degraded.lanes()[0].from, degraded.lanes()[0].to), (1, 0));
        assert_eq!(degraded.chips(), spec.chips());
        assert_eq!(degraded.bridge_period(), spec.bridge_period());

        // A width cap shrinks a wide lane; a zero cap removes it outright.
        let wide = BoardSpec::full(
            vec![
                BusSpec::broadcast(2, 1, 16).unwrap(),
                BusSpec::broadcast(2, 1, 16).unwrap(),
            ],
            4,
            2,
            1.5,
            8,
        )
        .unwrap();
        let mut caps = synchro_sdf::FaultSpec::none();
        caps.degrade_lane(0, 1, 1).degrade_lane(1, 0, 0);
        let capped = wide.apply_faults(&caps);
        assert_eq!(capped.lanes().len(), 1);
        assert_eq!((capped.lanes()[0].from, capped.lanes()[0].to), (0, 1));
        assert_eq!(capped.lanes()[0].width_words, 1);

        // No faults: the board is unchanged.
        assert_eq!(spec.apply_faults(&synchro_sdf::FaultSpec::none()), spec);
    }

    #[test]
    fn faulted_board_rejects_traffic_needing_the_dead_lane() {
        let g = chain4();
        let m = split_mapping(2);
        let mut faults = synchro_sdf::FaultSpec::none();
        faults.fail_lane(0, 1);
        let spec = two_chip_board().apply_faults(&faults);
        let err = compile_board(&g, &m, &spec).unwrap_err();
        assert!(matches!(
            err,
            RouteError::BridgeOversubscribed {
                from_chip: 0,
                to_chip: 1,
                capacity: 0,
                ..
            }
        ));
        assert!(err.is_resource_exhaustion());
    }

    #[test]
    fn board_flows_split_intra_and_inter_chip_traffic() {
        let g = chain4();
        let m = split_mapping(2);
        let (intra, bridge) = board_flows(&g, &m).unwrap();
        assert_eq!(intra.len(), 2);
        // Edge 0 stays on chip 0 (columns 0→1), edge 2 on chip 1.
        assert_eq!(
            intra[0],
            vec![ColumnFlow {
                edge: 0,
                from: 0,
                to: 1,
                words: 2
            }]
        );
        assert_eq!(
            intra[1],
            vec![ColumnFlow {
                edge: 2,
                from: 0,
                to: 1,
                words: 2
            }]
        );
        // Edge 1 crosses the boundary.
        assert_eq!(
            bridge,
            vec![BridgeFlow {
                edge: 1,
                from_chip: 0,
                from_column: 1,
                to_chip: 1,
                to_column: 0,
                words: 2
            }]
        );
    }

    #[test]
    fn single_chip_board_flows_match_legacy_column_flows() {
        let g = chain4();
        let mut m = Mapping::new();
        for a in 0..4 {
            m.place(ActorId(a), 2, 1.0);
        }
        let (intra, bridge) = board_flows(&g, &m).unwrap();
        assert!(bridge.is_empty());
        assert_eq!(intra.len(), 1);
        assert_eq!(intra[0], column_flows(&g, &m).unwrap());
    }

    #[test]
    fn single_chip_board_compiles_bit_identically_to_legacy() {
        let g = chain4();
        let mut m = Mapping::new();
        for a in 0..4 {
            m.place(ActorId(a), 2, 1.0);
        }
        let bus = BusSpec::broadcast(4, 1, 16).unwrap();
        let legacy = compile(&g, &m, &bus).unwrap();
        let board = compile_board(&g, &m, &BoardSpec::single(bus)).unwrap();
        assert_eq!(board.chips().len(), 1);
        assert_eq!(board.chips()[0], legacy);
        assert!(board.bridge().slots().is_empty());
        assert_eq!(board.bridge().scheduled_slots(), 0);
    }

    #[test]
    fn two_chip_split_routes_the_boundary_edge_over_the_bridge() {
        let g = chain4();
        let m = split_mapping(2);
        let route = compile_board(&g, &m, &two_chip_board()).unwrap();
        for chip in route.chips() {
            chip.validate().unwrap();
        }
        route.bridge().validate().unwrap();
        assert_eq!(route.bridge().words(), 2);
        assert_eq!(route.bridge().words_between(0, 1), 2);
        assert_eq!(route.bridge().words_between(1, 0), 0);
        assert_eq!(route.bridge().words_for_edge(1), 2);
        // Width 1 → 2 words take 2 bridge cycles.
        assert_eq!(route.bridge().occupied_slots(), 2);
        assert_eq!(route.bridge().scheduled_slots(), 2 * 8);
        assert!((route.bridge().utilization() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn missing_lane_reports_capacity_zero() {
        let g = chain4();
        // Reverse the chain direction across a linear board by placing the
        // tail on chip 0 and the head on chip 1: edge 1 then runs 1→0,
        // which a linear board *does* serve — instead build a board whose
        // only lane runs 1→0 so 0→1 traffic has no lane.
        let chips = vec![
            BusSpec::broadcast(2, 1, 16).unwrap(),
            BusSpec::broadcast(2, 1, 16).unwrap(),
        ];
        let lanes = vec![BridgeLane {
            from: 1,
            to: 0,
            width_words: 1,
            latency_cycles: 1,
            energy_pj_per_word: 1.0,
        }];
        let board = BoardSpec::new(chips, lanes, 8).unwrap();
        let m = split_mapping(2);
        assert_eq!(
            compile_board(&g, &m, &board),
            Err(RouteError::BridgeOversubscribed {
                from_chip: 0,
                to_chip: 1,
                demand: 2,
                capacity: 0,
            })
        );
    }

    #[test]
    fn oversubscribed_bridge_reports_demand_and_capacity() {
        let g = chain4();
        let m = split_mapping(2);
        // Bridge period 1, width 1 → capacity 1 word < 2 demanded.
        let chips = vec![
            BusSpec::broadcast(2, 1, 16).unwrap(),
            BusSpec::broadcast(2, 1, 16).unwrap(),
        ];
        let board = BoardSpec::full(chips, 1, 2, 1.5, 1).unwrap();
        assert_eq!(
            compile_board(&g, &m, &board),
            Err(RouteError::BridgeOversubscribed {
                from_chip: 0,
                to_chip: 1,
                demand: 2,
                capacity: 1,
            })
        );
    }

    #[test]
    fn parallel_lanes_split_one_flow() {
        let g = chain4();
        let m = split_mapping(2);
        // Two parallel 0→1 lanes of width 1 with period 1: the 2-word
        // boundary flow must split one word per lane.
        let chips = vec![
            BusSpec::broadcast(2, 1, 16).unwrap(),
            BusSpec::broadcast(2, 1, 16).unwrap(),
        ];
        let lane = |from, to| BridgeLane {
            from,
            to,
            width_words: 1,
            latency_cycles: 1,
            energy_pj_per_word: 1.0,
        };
        let board = BoardSpec::new(chips, vec![lane(0, 1), lane(0, 1)], 1).unwrap();
        let route = compile_board(&g, &m, &board).unwrap();
        route.bridge().validate().unwrap();
        assert_eq!(route.bridge().slots().len(), 2);
        assert_eq!(route.bridge().slots()[0].lane, 0);
        assert_eq!(route.bridge().slots()[1].lane, 1);
        assert_eq!(route.bridge().words(), 2);
    }

    #[test]
    fn wide_lane_packs_words_per_cycle() {
        let g = chain4();
        let m = split_mapping(2);
        let chips = vec![
            BusSpec::broadcast(2, 1, 16).unwrap(),
            BusSpec::broadcast(2, 1, 16).unwrap(),
        ];
        // Width 2 → the 2-word flow fits one bridge cycle.
        let board = BoardSpec::full(chips, 2, 2, 1.5, 8).unwrap();
        let route = compile_board(&g, &m, &board).unwrap();
        assert_eq!(route.bridge().occupied_slots(), 1);
        assert_eq!(route.bridge().words(), 2);
    }

    #[test]
    fn invalid_boards_are_rejected() {
        assert!(BoardSpec::new(Vec::new(), Vec::new(), 8).is_err());
        let chip = BusSpec::broadcast(2, 1, 16).unwrap();
        let bad_endpoint = BridgeLane {
            from: 0,
            to: 5,
            width_words: 1,
            latency_cycles: 0,
            energy_pj_per_word: 1.0,
        };
        assert!(BoardSpec::new(vec![chip.clone()], vec![bad_endpoint], 8).is_err());
        let self_lane = BridgeLane {
            from: 0,
            to: 0,
            width_words: 1,
            latency_cycles: 0,
            energy_pj_per_word: 1.0,
        };
        assert!(BoardSpec::new(vec![chip.clone()], vec![self_lane], 8).is_err());
        let zero_width = BridgeLane {
            from: 0,
            to: 1,
            width_words: 0,
            latency_cycles: 0,
            energy_pj_per_word: 1.0,
        };
        assert!(BoardSpec::new(vec![chip.clone(), chip.clone()], vec![zero_width], 8).is_err());
        // A mapping spanning more chips than the board has.
        let g = chain4();
        let m = split_mapping(2);
        let board = BoardSpec::single(BusSpec::broadcast(4, 1, 16).unwrap());
        assert!(matches!(
            compile_board(&g, &m, &board),
            Err(RouteError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn bridge_validate_rejects_hand_built_conflicts() {
        let lanes = vec![BridgeLane {
            from: 0,
            to: 1,
            width_words: 1,
            latency_cycles: 0,
            energy_pj_per_word: 1.0,
        }];
        let overlap = BridgeSchedule {
            lanes: lanes.clone(),
            period: 8,
            slots: vec![
                BridgeSlot {
                    lane: 0,
                    cycle: 0,
                    cycles: 3,
                    words: 3,
                    edge: 0,
                },
                BridgeSlot {
                    lane: 0,
                    cycle: 2,
                    cycles: 1,
                    words: 1,
                    edge: 1,
                },
            ],
        };
        assert!(matches!(
            overlap.validate(),
            Err(RouteError::InvalidSpec { .. })
        ));
        let past_period = BridgeSchedule {
            lanes: lanes.clone(),
            period: 4,
            slots: vec![BridgeSlot {
                lane: 0,
                cycle: 3,
                cycles: 2,
                words: 2,
                edge: 0,
            }],
        };
        assert!(matches!(
            past_period.validate(),
            Err(RouteError::PeriodOverflow { .. })
        ));
        let over_width = BridgeSchedule {
            lanes,
            period: 8,
            slots: vec![BridgeSlot {
                lane: 0,
                cycle: 0,
                cycles: 1,
                words: 2,
                edge: 0,
            }],
        };
        assert!(matches!(
            over_width.validate(),
            Err(RouteError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn bridge_error_display_is_informative() {
        let e = RouteError::BridgeOversubscribed {
            from_chip: 0,
            to_chip: 2,
            demand: 9,
            capacity: 4,
        };
        let s = e.to_string();
        assert!(
            s.contains("0→2") && s.contains('9') && s.contains('4'),
            "{s}"
        );
    }
}
