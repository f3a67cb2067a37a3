//! The seeded request generator.
//!
//! A request is the tuple `(graph, rate, budget, structure, tier, frames,
//! fault)`; the library only ever sees these generated values.  The
//! generator uses its own SplitMix64 so a change to the library's random
//! helpers can never change the request list.

use std::fmt;

use synchroscalar::mapper::ExecutionTier;

/// The applications a request can draw: the six reference graphs of the
/// paper, then the 24-stage `deep_pipeline` that needs two chips.
pub const APPS: usize = 7;

/// Blocks in one request list; the timed loop cycles through the list.
/// Enough that every kill time meets every application several times.
pub const BLOCKS: usize = 30;

/// The request mixes.
///
/// Fault recovery is not a workload of its own.  Alone, its figures
/// followed the host's speed so closely that ten seeds spread by up to a
/// quarter on a contended host, past any bound a regression could be
/// judged by.  One fault request per application rides in each
/// design-sweep block instead, so its layers are still timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Explore, realize, compile, 8 fast-tier frames, analyze; and per
    /// application a static fault rejection, a faulted run to a stall
    /// and a degraded re-exploration.
    DesignSweep,
    /// Reference mappings run ~10³ frames interpreted, analyzed, then
    /// replayed on the fast tier.
    LongTrace,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::DesignSweep, Workload::LongTrace];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignSweep => "design_sweep",
            Workload::LongTrace => "long_trace",
        }
    }

    /// Requests per block.  A block holds every stratum of the mix once,
    /// in seeded order: all 126 design-sweep shapes and one fault request
    /// per application, or every application at each `long_trace` frame
    /// count.  Runs measure whole blocks, so two seeds measure the same
    /// mix, and per-block statistics compare like with like.
    pub fn block_len(self) -> usize {
        match self {
            Workload::DesignSweep => APPS * RATES.len() * BUDGETS.len() * 2 + APPS,
            Workload::LongTrace => APPS * LONG_FRAMES.len(),
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How the explorer may group actors into columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// One actor per column, searched on a board of up to two chips.
    SingleActor,
    /// Adjacent actors may fuse into one column, on one chip.
    Fused,
}

/// The hardware a fault request kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A column, indexed within its chip.
    Column {
        /// Board chip hosting the column.
        chip: usize,
        /// Column index within that chip.
        column: usize,
    },
    /// The chip 0 → chip 1 bridge lane of the `deep_pipeline` board.
    ForwardBridge,
}

/// A fault drawn for a request: what dies, and after how many
/// hyperperiods it dies at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The dead hardware.
    pub target: FaultTarget,
    /// Kill tick in hyperperiods (1–4).
    pub kill_hyperperiods: u64,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Index into the application table (see [`APPS`]).
    pub app: usize,
    /// Iteration rate as a fraction of the application's reference rate.
    pub rate: (u64, u64),
    /// Tile budget as a fraction of the application's reference budget.
    pub budget: (u32, u32),
    /// Column structure the explorer searches.
    pub structure: Structure,
    /// Tier of the primary execution.
    pub tier: ExecutionTier,
    /// Graph iterations executed.
    pub frames: u64,
    /// The fault to inject, for a fault request.
    pub fault: Option<Fault>,
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app {} rate {}/{} budget {}/{} {:?} {:?} {} frames",
            self.app,
            self.rate.0,
            self.rate.1,
            self.budget.0,
            self.budget.1,
            self.structure,
            self.tier,
            self.frames
        )?;
        if let Some(fault) = self.fault {
            write!(
                f,
                " kill {:?} at {} hyperperiods",
                fault.target, fault.kill_hyperperiods
            )?;
        }
        Ok(())
    }
}

/// SplitMix64: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Columns per chip of each application's reference mapping, used to draw
/// a fault target: `columns[app]` lists the column count of every chip.
pub type ColumnCounts = [Vec<usize>; APPS];

/// Iteration rates of a design-sweep request, as fractions of the
/// reference rate.
const RATES: [(u64, u64); 3] = [(1, 1), (3, 4), (1, 2)];
/// Tile budgets of a design-sweep request, as fractions of the reference
/// budget.
const BUDGETS: [(u32, u32); 3] = [(1, 2), (1, 1), (2, 1)];
/// Frame counts of a `long_trace` request.
const LONG_FRAMES: [u64; 3] = [960, 1024, 1088];
/// Kill times of a fault request, in hyperperiods.
const KILL_HYPERPERIODS: [u64; 4] = [1, 2, 3, 4];

/// Shuffle `items` in place (Fisher–Yates).
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Deals each application's fault targets from a deck: every column of
/// its reference mapping once and, on the two-chip board, the forward
/// bridge lane once for every two columns.  A deck is reshuffled each
/// time it runs out.  Dealing rather than drawing gives every seed the
/// same targets in the same proportions, so seeds differ in order only:
/// drawn targets made the list's cost differ by a few percent between
/// seeds.
struct Dealer {
    decks: Vec<Vec<FaultTarget>>,
    dealt: [usize; APPS],
}

impl Dealer {
    fn new(columns: &ColumnCounts) -> Self {
        let decks = columns
            .iter()
            .map(|chips| {
                let mut deck: Vec<FaultTarget> = chips
                    .iter()
                    .enumerate()
                    .flat_map(|(chip, &n)| {
                        (0..n).map(move |column| FaultTarget::Column { chip, column })
                    })
                    .collect();
                if chips.len() > 1 {
                    let bridges = deck.len() / 2;
                    deck.extend(std::iter::repeat_n(FaultTarget::ForwardBridge, bridges));
                }
                deck
            })
            .collect();
        Dealer {
            decks,
            dealt: [0; APPS],
        }
    }

    /// The next target for `app`.
    fn deal(&mut self, app: usize, rng: &mut Rng) -> FaultTarget {
        let deck = &mut self.decks[app];
        let card = self.dealt[app] % deck.len();
        if card == 0 {
            shuffle(deck, rng);
        }
        self.dealt[app] += 1;
        deck[card]
    }
}

/// Generate the request list of `workload` for `seed`: [`BLOCKS`]
/// blocks, each a seeded permutation of the workload's strata.
///
/// `columns` gives the shape of each application's reference mapping, so
/// a dealt fault always names a column that exists.
pub fn generate(workload: Workload, seed: u64, columns: &ColumnCounts) -> Vec<Request> {
    // Mix the workload into the seed so the lists differ.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut dealer = Dealer::new(columns);
    let mut list = Vec::with_capacity(BLOCKS * workload.block_len());
    for block in 0..BLOCKS {
        let mut strata = strata(workload, block, &mut rng, &mut dealer);
        shuffle(&mut strata, &mut rng);
        list.extend(strata);
    }
    list
}

/// Block `block`'s requests, before shuffling.
fn strata(workload: Workload, block: usize, rng: &mut Rng, dealer: &mut Dealer) -> Vec<Request> {
    let base = Request {
        app: 0,
        rate: (1, 1),
        budget: (1, 1),
        structure: Structure::SingleActor,
        tier: ExecutionTier::Fast,
        frames: 8,
        fault: None,
    };
    match workload {
        Workload::DesignSweep => {
            let mut out = Vec::with_capacity(workload.block_len());
            for app in 0..APPS {
                for rate in RATES {
                    for budget in BUDGETS {
                        for structure in [Structure::SingleActor, Structure::Fused] {
                            out.push(Request {
                                app,
                                rate,
                                budget,
                                structure,
                                ..base
                            });
                        }
                    }
                }
            }
            // Each application's kill time steps through the four in
            // turn, offset so one block holds all four.
            out.extend((0..APPS).map(|app| Request {
                app,
                frames: 64,
                fault: Some(Fault {
                    target: dealer.deal(app, rng),
                    kill_hyperperiods: KILL_HYPERPERIODS[(block + app) % KILL_HYPERPERIODS.len()],
                }),
                ..base
            }));
            out
        }
        Workload::LongTrace => (0..APPS)
            .flat_map(|app| {
                LONG_FRAMES.map(|frames| Request {
                    app,
                    tier: ExecutionTier::Interpreted,
                    frames,
                    ..base
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> ColumnCounts {
        std::array::from_fn(|app| {
            if app == APPS - 1 {
                vec![12, 12]
            } else {
                vec![5]
            }
        })
    }

    #[test]
    fn the_same_seed_gives_the_same_list() {
        for workload in Workload::ALL {
            assert_eq!(
                generate(workload, 7, &columns()),
                generate(workload, 7, &columns()),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn another_seed_gives_another_list() {
        for workload in Workload::ALL {
            assert_ne!(
                generate(workload, 7, &columns()),
                generate(workload, 8, &columns()),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn every_block_holds_each_stratum_once() {
        for workload in Workload::ALL {
            let list = generate(workload, 3, &columns());
            assert_eq!(list.len(), BLOCKS * workload.block_len());
            for block in list.chunks(workload.block_len()) {
                // A stratum is the request without its drawn fault target.
                let strata: std::collections::HashSet<_> = block
                    .iter()
                    .map(|r| {
                        let kill = r.fault.map(|f| f.kill_hyperperiods);
                        (r.app, r.rate, r.budget, r.structure, r.frames, kill)
                    })
                    .collect();
                assert_eq!(strata.len(), block.len(), "{}", workload.name());
            }
        }
    }

    #[test]
    fn every_seed_deals_the_same_fault_targets() {
        let columns = columns();
        let dealer = Dealer::new(&columns);
        for seed in [5, 6] {
            for (app, deck) in dealer.decks.iter().enumerate() {
                let dealt: Vec<FaultTarget> = generate(Workload::DesignSweep, seed, &columns)
                    .iter()
                    .filter(|r| r.app == app)
                    .filter_map(|r| r.fault.map(|f| f.target))
                    .collect();
                assert_eq!(dealt.len(), BLOCKS);
                // Every full round of the deck deals each card once, so a
                // target's count is fixed up to the last, partial round.
                let rounds = dealt.len() / deck.len();
                for card in deck {
                    let count = |ts: &[FaultTarget]| ts.iter().filter(|t| *t == card).count();
                    let (dealt, copies) = (count(&dealt), count(deck));
                    assert!(
                        (rounds * copies..=(rounds + 1) * copies).contains(&dealt),
                        "app {app} seed {seed}: {card:?} dealt {dealt} times in {rounds} rounds"
                    );
                }
            }
        }
    }

    #[test]
    fn faults_name_existing_hardware() {
        let columns = columns();
        for request in generate(Workload::DesignSweep, 11, &columns) {
            let Some(fault) = request.fault else {
                continue;
            };
            assert!((1..=4).contains(&fault.kill_hyperperiods));
            match fault.target {
                FaultTarget::Column { chip, column } => {
                    assert!(column < columns[request.app][chip]);
                }
                FaultTarget::ForwardBridge => assert_eq!(columns[request.app].len(), 2),
            }
        }
    }
}
