//! A board of chips: co-advances several [`Chip`]s in shared reference
//! time and replays the statically compiled chip-to-chip bridge schedule.
//!
//! The board is the multi-chip generalization of the single-chip driver:
//! each chip keeps its own columns, horizontal bus and [`BusProgram`]
//! exactly as before, while the board holds the fleet, a board-level
//! reference clock (the frontier of the chips' reference clocks), and a
//! periodic [`BridgeProgram`] that accounts inter-chip transfers the same
//! way a chip's bus program accounts intra-chip slots.  Bridge statistics
//! reuse [`BusStats`], so the occupied/scheduled slot split survives into
//! the power calibration unchanged.
//!
//! [`BusProgram`]: crate::chip::BusProgram

use crate::chip::Chip;
use crate::column::ColumnError;
use synchro_bus::BusStats;
use synchro_trace::{BridgeTransferEvent, Trace, TraceEvent};

/// The trace event of `count` occurrences of `slot` moving `words` words.
fn bridge_event(slot: &BridgeTransfer, tick: u64, words: u64, count: u64) -> TraceEvent {
    BridgeTransferEvent {
        lane: slot.lane as u32,
        from_chip: slot.from_chip as u32,
        to_chip: slot.to_chip as u32,
        tick,
        words,
        count,
    }
    .into()
}

/// One scheduled transfer of a [`BridgeProgram`]: `words` words over
/// bridge lane `lane` from a column of `from_chip` to a column of
/// `to_chip`, occupying `cycles` back-to-back bridge cycles, issued when
/// the board reference clock passes `tick` (an offset within the
/// program's period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeTransfer {
    /// Reference-tick offset within the period at which the slot fires.
    pub tick: u64,
    /// Bridge lane carrying the words.
    pub lane: usize,
    /// Producing chip.
    pub from_chip: usize,
    /// Consuming chip.
    pub to_chip: usize,
    /// Words transferred.
    pub words: u64,
    /// Bridge cycles the slot occupies (`words.div_ceil(lane width)`).
    pub cycles: u64,
}

/// A periodic, statically compiled bridge schedule: `slots` fire every
/// `period` reference ticks, `iterations` times in total — the
/// board-level counterpart of a chip's [`BusProgram`](crate::BusProgram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeProgram {
    period: u64,
    iterations: u64,
    /// Bridge cycles the schedule reserves per period (`lanes × bridge
    /// period`), accounted into [`BusStats::scheduled_slots`] as periods
    /// complete.
    scheduled_slots_per_period: u64,
    slots: Vec<BridgeTransfer>,
}

impl BridgeProgram {
    /// Build a program.  `slots` must be sorted by `tick` and lie inside
    /// `period`; `iterations` is the number of periods the program runs.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, slots are unsorted, or a slot's tick
    /// falls outside the period (all indicate a broken schedule compiler).
    pub fn new(
        period: u64,
        iterations: u64,
        scheduled_slots_per_period: u64,
        slots: Vec<BridgeTransfer>,
    ) -> Self {
        assert!(period > 0, "a bridge program needs a positive period");
        assert!(
            slots.windows(2).all(|w| w[0].tick <= w[1].tick),
            "bridge program slots must be sorted by tick"
        );
        assert!(
            slots.iter().all(|s| s.tick < period),
            "bridge program slots must fire within the period"
        );
        BridgeProgram {
            period,
            iterations,
            scheduled_slots_per_period,
            slots,
        }
    }

    /// Reference ticks per period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Periods the program runs.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The slots of one period.
    pub fn slots(&self) -> &[BridgeTransfer] {
        &self.slots
    }

    /// Words the program transfers per period.
    pub fn words_per_period(&self) -> u64 {
        self.slots.iter().map(|s| s.words).sum()
    }
}

/// Progress of a loaded bridge program (mirrors the chip's bus-program
/// state).
#[derive(Debug)]
struct BridgeProgramState {
    program: BridgeProgram,
    origin: u64,
    iteration: u64,
    next_slot: usize,
}

/// A board of Synchroscalar chips sharing one reference clock, joined by
/// chip-to-chip bridge lanes.
#[derive(Debug, Default)]
pub struct Board {
    chips: Vec<Chip>,
    bridge_program: Option<BridgeProgramState>,
    bridge: BusStats,
    lane_words: Vec<u64>,
    /// Per-lane fault tick: slots on lane `l` whose absolute reference
    /// tick is `>= lane_dead_from[l]` are dropped undelivered.
    lane_dead_from: Vec<Option<u64>>,
    reference_cycles: u64,
    trace: Trace,
}

impl Board {
    /// An empty board.
    pub fn new() -> Self {
        Board::default()
    }

    /// Add a chip; returns its index.
    pub fn add_chip(&mut self, mut chip: Chip) -> usize {
        let index = self.chips.len();
        if self.trace.enabled() {
            chip.set_trace(self.trace.clone(), index as u32);
        }
        self.chips.push(chip);
        index
    }

    /// Install a trace sink on the board and every chip (and hence column)
    /// it holds; chips added later inherit it, stamped with their board
    /// chip index.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
        for (index, chip) in self.chips.iter_mut().enumerate() {
            chip.set_trace(self.trace.clone(), index as u32);
        }
    }

    /// The trace handle events flow through (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips.len()
    }

    /// Access a chip.
    pub fn chip(&self, index: usize) -> Option<&Chip> {
        self.chips.get(index)
    }

    /// Mutable access to a chip (e.g. to load its bus program).
    pub fn chip_mut(&mut self, index: usize) -> Option<&mut Chip> {
        self.chips.get_mut(index)
    }

    /// The board reference clock: the frontier the fleet has advanced to.
    pub fn reference_cycles(&self) -> u64 {
        self.reference_cycles
    }

    /// Bridge traffic statistics (occupied/scheduled bridge cycles, words,
    /// per-word deliveries) — same shape as a horizontal bus's
    /// [`BusStats`].
    pub fn bridge_stats(&self) -> BusStats {
        self.bridge
    }

    /// Words moved per bridge lane so far (indexed like the board spec's
    /// lanes).
    pub fn lane_words(&self) -> &[u64] {
        &self.lane_words
    }

    /// True when every column of every chip has halted.
    pub fn all_halted(&self) -> bool {
        self.chips.iter().all(Chip::all_halted)
    }

    /// Kill column `column` of chip `chip` at reference tick `tick`
    /// (see [`Chip::fail_column`]).  Returns `false` if either index is
    /// out of range.
    pub fn fail_column(&mut self, chip: usize, column: usize, tick: u64) -> bool {
        self.chips
            .get_mut(chip)
            .is_some_and(|c| c.fail_column(column, tick))
    }

    /// Kill bridge lane `lane` at reference tick `tick`: every scheduled
    /// slot on the lane whose absolute tick is `>= tick` is dropped
    /// undelivered (and unaccounted).  Emits
    /// [`TraceEvent::FaultLaneKilled`], with the lane's endpoints taken
    /// from the loaded bridge program's first slot on that lane.
    pub fn fail_lane(&mut self, lane: usize, tick: u64) {
        if lane >= self.lane_dead_from.len() {
            self.lane_dead_from.resize(lane + 1, None);
        }
        let dead = self.lane_dead_from[lane].get_or_insert(tick);
        *dead = (*dead).min(tick);
        let endpoints = self
            .bridge_program
            .as_ref()
            .and_then(|s| s.program.slots.iter().find(|t| t.lane == lane))
            .map(|t| (t.from_chip as u32, t.to_chip as u32))
            .unwrap_or((0, 0));
        self.trace.emit(|| TraceEvent::FaultLaneKilled {
            lane: lane as u32,
            from_chip: endpoints.0,
            to_chip: endpoints.1,
            tick,
        });
    }

    /// True when a slot on `lane` firing at absolute tick `at` would hit
    /// dead hardware.
    fn lane_dead_at(&self, lane: usize, at: u64) -> bool {
        self.lane_dead_from
            .get(lane)
            .copied()
            .flatten()
            .is_some_and(|dead| at >= dead)
    }

    /// True when any bridge lane has been killed by a fault.
    pub fn any_lane_failed(&self) -> bool {
        self.lane_dead_from.iter().any(Option::is_some)
    }

    /// Load a statically compiled bridge schedule.  The program starts at
    /// the current board reference tick; [`Board::run`] then replays the
    /// transfers as the reference clock passes each slot's time.
    ///
    /// # Errors
    ///
    /// Returns [`synchro_bus::BusError::IndexOutOfRange`] if a slot
    /// references a chip the board does not have.
    pub fn load_bridge_program(
        &mut self,
        program: BridgeProgram,
    ) -> Result<(), synchro_bus::BusError> {
        let chips = self.chips.len();
        let mut lanes = self.lane_words.len();
        for slot in &program.slots {
            for &c in [slot.from_chip, slot.to_chip].iter() {
                if c >= chips {
                    return Err(synchro_bus::BusError::IndexOutOfRange {
                        what: "chip",
                        index: c,
                        limit: chips,
                    });
                }
            }
            lanes = lanes.max(slot.lane + 1);
        }
        self.lane_words.resize(lanes, 0);
        self.bridge_program = Some(BridgeProgramState {
            program,
            origin: self.reference_cycles,
            iteration: 0,
            next_slot: 0,
        });
        Ok(())
    }

    /// Account one bridge transfer: `cycles` occupied bridge cycles
    /// carrying `words` words over `lane`.
    fn account_transfer(&mut self, lane: usize, words: u64, cycles: u64) {
        self.bridge.active_cycles += cycles;
        self.bridge.word_transfers += words;
        self.bridge.occupied_slots += cycles;
        self.bridge.deliveries += words;
        if lane >= self.lane_words.len() {
            self.lane_words.resize(lane + 1, 0);
        }
        self.lane_words[lane] += words;
    }

    /// Issue every bridge-program slot whose absolute reference tick lies
    /// before `end`, and account each fully elapsed period's scheduled
    /// bridge cycles (mirrors the chip's bus-program drive).
    fn drive_bridge_through(&mut self, end: u64) {
        loop {
            let Some(state) = &self.bridge_program else {
                return;
            };
            if state.iteration >= state.program.iterations {
                return;
            }
            let base = state
                .origin
                .saturating_add(state.iteration.saturating_mul(state.program.period));
            if state.next_slot < state.program.slots.len() {
                let slot = &state.program.slots[state.next_slot];
                if base.saturating_add(slot.tick) >= end {
                    return;
                }
                let at = base.saturating_add(slot.tick);
                if !self.lane_dead_at(slot.lane, at) {
                    self.trace.emit(|| bridge_event(slot, at, slot.words, 1));
                    let (lane, words, cycles) = (slot.lane, slot.words, slot.cycles);
                    self.account_transfer(lane, words, cycles);
                }
                // A dead lane consumes the slot but delivers nothing.
                let state = self.bridge_program.as_mut().expect("still loaded");
                state.next_slot += 1;
            } else if base.saturating_add(state.program.period) <= end {
                let scheduled = state.program.scheduled_slots_per_period;
                self.bridge.scheduled_slots += scheduled;
                let state = self.bridge_program.as_mut().expect("still loaded");
                state.iteration += 1;
                state.next_slot = 0;
            } else {
                return;
            }
        }
    }

    /// Drive the loaded bridge program to completion regardless of how far
    /// the reference clock has advanced — the drain step a board driver
    /// calls once every chip has halted.
    ///
    /// Idempotent: a finished (or absent) program is a no-op.
    pub fn finish_bridge_program(&mut self) {
        self.drive_bridge_through(u64::MAX);
    }

    /// The batched equivalent of [`Board::finish_bridge_program`]: drain
    /// every remaining period in O(slots per period) work.  Statistics are
    /// bit-identical to the per-period replay by the linearity of the
    /// accounting — replaying a slot across `n` periods moves `n × words`
    /// words and occupies `n × cycles` bridge cycles.  This is the tail
    /// drain the fast execution tier uses.
    ///
    /// Idempotent: a finished (or absent) program is a no-op, and a
    /// subsequent [`Board::finish_bridge_program`] sees a completed
    /// program.
    pub fn finish_bridge_program_batched(&mut self) {
        // With a dead lane the per-slot linearity breaks (slots before the
        // fault tick deliver, later ones don't), so fall back to the
        // per-period replay — faulted runs take the interpreted path
        // anyway, this keeps the drain correct for any caller.
        if self.any_lane_failed() {
            self.finish_bridge_program();
            return;
        }
        let Some(state) = self.bridge_program.take() else {
            return;
        };
        let BridgeProgramState {
            program,
            origin,
            mut iteration,
            mut next_slot,
        } = state;
        if iteration < program.iterations {
            // Pending slots of the current (possibly partial) period.
            let base = origin.saturating_add(iteration.saturating_mul(program.period));
            for slot in &program.slots[next_slot..] {
                self.account_transfer(slot.lane, slot.words, slot.cycles);
                self.trace
                    .emit(|| bridge_event(slot, base.saturating_add(slot.tick), slot.words, 1));
            }
            // All remaining full periods, one bulk charge per slot and one
            // batched trace event per slot (normalizes to the per-period
            // replay's one-event-per-transfer stream).
            let full = program.iterations - iteration - 1;
            if full > 0 {
                let last_base =
                    origin.saturating_add((program.iterations - 1).saturating_mul(program.period));
                for slot in &program.slots {
                    self.account_transfer(slot.lane, slot.words * full, slot.cycles * full);
                    self.trace.emit(|| {
                        bridge_event(
                            slot,
                            last_base.saturating_add(slot.tick),
                            slot.words * full,
                            full,
                        )
                    });
                }
            }
            self.bridge.scheduled_slots +=
                program.scheduled_slots_per_period * (program.iterations - iteration);
            iteration = program.iterations;
            next_slot = 0;
        }
        self.bridge_program = Some(BridgeProgramState {
            program,
            origin,
            iteration,
            next_slot,
        });
    }

    /// Co-advance the fleet by up to `max_ticks` board reference ticks:
    /// every chip runs to the common absolute reference target (each with
    /// its own event-driven driver, so the per-chip statistics are
    /// bit-identical to running it alone), then the board clock moves to
    /// the fleet's frontier and the bridge schedule replays up to it.
    /// Returns the board reference ticks consumed.
    ///
    /// A fully halted fleet consumes no ticks — like a single chip, the
    /// remaining bridge slots are drained by
    /// [`Board::finish_bridge_program`].
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn run(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        self.co_advance(max_ticks, Chip::run)
    }

    /// The naive equivalent of [`Board::run`]: every chip advances tick by
    /// tick through [`Chip::run_ticked`].  Kept as the differential-testing
    /// reference for the board drivers; statistics and trace events are
    /// bit-identical to [`Board::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first column error encountered.
    pub fn run_ticked(&mut self, max_ticks: u64) -> Result<u64, ColumnError> {
        self.co_advance(max_ticks, Chip::run_ticked)
    }

    fn co_advance(
        &mut self,
        max_ticks: u64,
        run_chip: fn(&mut Chip, u64) -> Result<u64, ColumnError>,
    ) -> Result<u64, ColumnError> {
        let start = self.reference_cycles;
        let end = start.saturating_add(max_ticks);
        for chip in &mut self.chips {
            let now = chip.stats().reference_cycles;
            if now < end && !chip.all_halted() {
                run_chip(chip, end - now)?;
            }
        }
        let frontier = self
            .chips
            .iter()
            .map(|c| c.stats().reference_cycles)
            .max()
            .unwrap_or(start);
        if frontier > self.reference_cycles {
            self.reference_cycles = frontier;
        }
        self.drive_bridge_through(self.reference_cycles);
        Ok(self.reference_cycles - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnConfig};
    use synchro_isa::assemble;

    fn counting_column(iterations: u32, divider: u32) -> Column {
        let src = format!("loop {iterations}, 2\nli r0, 1\nadd r1, r1, r0\nhalt\n");
        let program = assemble(&src).unwrap();
        let config = ColumnConfig {
            tiles: 1,
            clock_divider: divider,
            voltage: 1.0,
            enabled_tiles: vec![true],
            rate_matcher: None,
        };
        Column::new(config, program, None)
    }

    fn one_column_chip(iterations: u32, divider: u32) -> Chip {
        let mut chip = Chip::new();
        chip.add_column(counting_column(iterations, divider));
        chip
    }

    fn two_chip_board() -> Board {
        let mut board = Board::new();
        board.add_chip(one_column_chip(4, 1));
        board.add_chip(one_column_chip(2, 3));
        board
    }

    fn bridge_program(iterations: u64) -> BridgeProgram {
        BridgeProgram::new(
            8,
            iterations,
            2 * 8,
            vec![
                BridgeTransfer {
                    tick: 0,
                    lane: 0,
                    from_chip: 0,
                    to_chip: 1,
                    words: 2,
                    cycles: 2,
                },
                BridgeTransfer {
                    tick: 4,
                    lane: 1,
                    from_chip: 1,
                    to_chip: 0,
                    words: 1,
                    cycles: 1,
                },
            ],
        )
    }

    #[test]
    fn chips_co_advance_in_reference_time() {
        let mut board = two_chip_board();
        board.run(100).unwrap();
        assert!(board.all_halted());
        // Chip 0 (divider 1) halts early; chip 1 (divider 3) runs longer.
        let r0 = board.chip(0).unwrap().stats().reference_cycles;
        let r1 = board.chip(1).unwrap().stats().reference_cycles;
        assert!(r0 < r1, "{r0} vs {r1}");
        assert_eq!(board.reference_cycles(), r0.max(r1));
        // A halted fleet consumes no further ticks.
        assert_eq!(board.run(10).unwrap(), 0);
    }

    #[test]
    fn bridge_program_replays_like_a_bus_program() {
        let mut board = two_chip_board();
        board.load_bridge_program(bridge_program(3)).unwrap();
        board.run(u64::MAX).unwrap();
        board.finish_bridge_program();
        let stats = board.bridge_stats();
        assert_eq!(stats.word_transfers, 3 * 3);
        assert_eq!(stats.occupied_slots, 3 * 3);
        assert_eq!(stats.scheduled_slots, 3 * 16);
        assert_eq!(board.lane_words(), &[6, 3]);
    }

    #[test]
    fn ticked_co_advance_matches_the_event_driven_one() {
        let mut event_driven = two_chip_board();
        let mut ticked = two_chip_board();
        event_driven.load_bridge_program(bridge_program(3)).unwrap();
        ticked.load_bridge_program(bridge_program(3)).unwrap();
        for window in [5, 7, 100] {
            assert_eq!(
                event_driven.run(window).unwrap(),
                ticked.run_ticked(window).unwrap()
            );
            assert_eq!(event_driven.bridge_stats(), ticked.bridge_stats());
            assert_eq!(event_driven.lane_words(), ticked.lane_words());
            for chip in 0..2 {
                let (a, b) = (event_driven.chip(chip), ticked.chip(chip));
                assert_eq!(a.map(Chip::stats), b.map(Chip::stats));
                assert_eq!(a.map(Chip::column_stats), b.map(Chip::column_stats));
            }
        }
        assert!(ticked.all_halted());
    }

    #[test]
    fn batched_drain_is_bit_identical_to_replay() {
        let mut interpreted = two_chip_board();
        interpreted.load_bridge_program(bridge_program(5)).unwrap();
        interpreted.run(u64::MAX).unwrap();
        interpreted.finish_bridge_program();

        let mut batched = two_chip_board();
        batched.load_bridge_program(bridge_program(5)).unwrap();
        batched.run(u64::MAX).unwrap();
        batched.finish_bridge_program_batched();

        assert_eq!(interpreted.bridge_stats(), batched.bridge_stats());
        assert_eq!(interpreted.lane_words(), batched.lane_words());
        // Idempotent, and the two drains compose.
        batched.finish_bridge_program();
        batched.finish_bridge_program_batched();
        assert_eq!(interpreted.bridge_stats(), batched.bridge_stats());
    }

    #[test]
    fn partial_progress_then_batched_drain_matches() {
        let mut replayed = two_chip_board();
        replayed.load_bridge_program(bridge_program(4)).unwrap();
        replayed.run(u64::MAX).unwrap();
        replayed.finish_bridge_program();

        // Fire only a prefix by hand, then drain the rest in bulk.
        let mut mixed = two_chip_board();
        mixed.load_bridge_program(bridge_program(4)).unwrap();
        mixed.drive_bridge_through(13); // first period + slot 0 of second
        mixed.finish_bridge_program_batched();
        assert_eq!(replayed.bridge_stats(), mixed.bridge_stats());
        assert_eq!(replayed.lane_words(), mixed.lane_words());
    }

    #[test]
    fn dead_lane_drops_slots_from_the_fault_tick_on() {
        let mut board = two_chip_board();
        board.load_bridge_program(bridge_program(3)).unwrap();
        // Lane 0 fires at ticks 0, 8, 16; kill it before the second firing.
        board.fail_lane(0, 5);
        assert!(board.any_lane_failed());
        board.run(u64::MAX).unwrap();
        board.finish_bridge_program();
        // Only lane 0's tick-0 slot delivered; lane 1 is untouched.
        assert_eq!(board.lane_words(), &[2, 3]);
        let stats = board.bridge_stats();
        assert_eq!(stats.word_transfers, 2 + 3);
        // Scheduled slots are still reserved — the TDM frame does not
        // shrink because a lane died.
        assert_eq!(stats.scheduled_slots, 3 * 16);
        // The batched drain falls back to the replay under a dead lane.
        let mut batched = two_chip_board();
        batched.load_bridge_program(bridge_program(3)).unwrap();
        batched.fail_lane(0, 5);
        batched.run(u64::MAX).unwrap();
        batched.finish_bridge_program_batched();
        assert_eq!(batched.bridge_stats(), stats);
        assert_eq!(batched.lane_words(), board.lane_words());
    }

    #[test]
    fn failed_board_column_prevents_all_halted() {
        let mut board = two_chip_board();
        assert!(board.fail_column(1, 0, 0));
        assert!(!board.fail_column(5, 0, 0));
        board.run(1_000).unwrap();
        assert!(!board.all_halted());
        assert!(board.chip(0).unwrap().all_halted());
        assert!(board.chip(1).unwrap().any_failed());
    }

    #[test]
    fn load_rejects_out_of_range_chips() {
        let mut board = Board::new();
        board.add_chip(one_column_chip(1, 1));
        let program = BridgeProgram::new(
            4,
            1,
            4,
            vec![BridgeTransfer {
                tick: 0,
                lane: 0,
                from_chip: 0,
                to_chip: 1,
                words: 1,
                cycles: 1,
            }],
        );
        assert!(board.load_bridge_program(program).is_err());
    }
}
