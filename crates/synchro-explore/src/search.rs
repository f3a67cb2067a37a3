//! The search engines: exhaustive enumeration of contiguous groupings
//! (each solved exactly by a per-tile-count dynamic program) for small
//! graphs, and a dominance-pruned beam search over grouping prefixes for
//! large ones.  The exhaustive engine fans its groupings across
//! `std::thread` workers (a single-worker search runs on the caller's
//! thread); the beam always runs on the caller's thread.
//!
//! The hot path is allocation-free: interval options live in one
//! contiguous [`IntervalArena`], the per-grouping dynamic program keeps
//! backpointer-indexed states in a reusable [`DpScratch`] (winning
//! allocations are reconstructed only when a grouping actually improves a
//! worker's incumbent), and the exhaustive engine load-balances skewed
//! groupings by work-stealing chunks off an atomic cursor.  Beam layers
//! are bucketed by tile count and reject dominated partials on arrival;
//! their dominance fronts are binary-searched staircases.  Clone- and
//! sort-based reference implementations of the grouping DP and the layer
//! prune are retained under `#[cfg(test)]` and property-tested for exact
//! agreement.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::model::{EvalCache, Evaluator, GraphContext};
use crate::space::{grouping_from_mask_into, mask_respects_group_size, Grouping, TileCandidates};
use crate::CommSpec;

/// Counters describing one search run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Candidate (partial) mappings examined: one per dynamic-program or
    /// beam transition, i.e. one per tile-allocation decision evaluated.
    pub mappings_evaluated: u64,
    /// Actor→column groupings examined.
    pub groupings_examined: u64,
    /// Partial solutions discarded by dominance pruning or the beam cap
    /// (zero for the exhaustive engine, which prunes nothing).
    pub states_pruned: u64,
    /// Groupings rejected by the communication-feasibility prune (their
    /// cross-column traffic cannot fit the configured TDM frame).
    pub groupings_comm_pruned: u64,
    /// Worker threads the search fanned out across.
    pub threads_used: usize,
    /// Wall-clock search time in seconds.
    pub elapsed_seconds: f64,
}

/// One search result: a grouping plus a tile allocation and its evaluated
/// cost.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub groups: Grouping,
    pub allocation: Vec<u32>,
    pub power_mw: f64,
    pub feasible: bool,
}

/// The raw outcome of a search: for each reachable exact tile count, the
/// best candidate found (the exhaustive engine covers every reachable
/// count; the beam engine only retains non-dominated counts).
pub(crate) struct SearchOutcome {
    pub curve: Vec<Candidate>,
    pub stats: SearchStats,
}

/// One pre-evaluated tile option of a contiguous interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntervalOption {
    /// Candidate tile count.
    pub tiles: u32,
    /// Whether the operating point fits the supply envelope.
    pub feasible: bool,
    /// Total column power at this tile count (mW).
    pub power: f64,
}

/// Pre-evaluated options of every contiguous interval the search may use
/// as one column group, stored as one contiguous arena with a parallel
/// offsets array indexed by `(start, end)`.
///
/// Interval costs are independent of the surrounding grouping, so the
/// arena is computed once and shared (read-only) by every worker; the
/// flat layout keeps the DP's option scans on sequential cache lines
/// instead of chasing `Vec<Vec<Option<Vec<_>>>>` indirections.
pub(crate) struct IntervalArena {
    /// Row stride of the offsets table (`n + 1` end slots per start).
    stride: usize,
    /// `offsets[start * stride + end] .. offsets[start * stride + end + 1]`
    /// bounds the options of interval `start..end` (empty for intervals
    /// the search never uses).
    offsets: Vec<u32>,
    /// All interval options, grouped by interval, tiles ascending.
    options: Vec<IntervalOption>,
}

impl IntervalArena {
    /// Evaluate every usable interval of `ctx` once.  Candidate tile
    /// counts are produced into one reusable scratch buffer and the
    /// VF/power model lookups are memoized across intervals sharing the
    /// same `(work, cap, tokens, tiles)` key.
    pub fn build(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
    ) -> Self {
        let mut cache = EvalCache::default();
        Self::build_with_cache(
            ctx,
            evaluator,
            candidates,
            budget,
            max_group_size,
            &mut cache,
        )
    }

    /// [`IntervalArena::build`] with an externally owned memo cache, so
    /// sweeps that rebuild the arena under a different tile budget (the
    /// budget changes which tile counts each interval offers, not what
    /// any `(work, cap, tokens, tiles)` point costs) reuse every power
    /// evaluation from earlier builds.  The caller must keep one cache
    /// per `(graph, technology, rate, efficiency)` combination — the key
    /// does not cover those.
    pub fn build_with_cache(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
        cache: &mut EvalCache,
    ) -> Self {
        let n = ctx.n;
        let stride = n + 1;
        let mut offsets = Vec::with_capacity(n * stride + 1);
        let mut options = Vec::new();
        let mut tile_scratch = Vec::new();
        offsets.push(0u32);
        for start in 0..n {
            let end_limit = (start + max_group_size).min(n);
            for end in 0..stride {
                if end > start && end <= end_limit {
                    let work = ctx.group_work(start, end);
                    let cap = ctx.group_cap(start, end);
                    let tokens = ctx.boundary_tokens(start, end);
                    candidates.for_group_into(cap, budget, &mut tile_scratch);
                    for &tiles in &tile_scratch {
                        let (power, feasible) = cache.power_of(evaluator, work, cap, tokens, tiles);
                        options.push(IntervalOption {
                            tiles,
                            feasible,
                            power,
                        });
                    }
                }
                offsets.push(options.len() as u32);
            }
        }
        IntervalArena {
            stride,
            offsets,
            options,
        }
    }

    /// The options of interval `start..end`, tiles ascending.
    #[inline]
    pub fn options(&self, start: usize, end: usize) -> &[IntervalOption] {
        let idx = start * self.stride + end;
        &self.options[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Total options stored across all intervals.
    pub fn option_count(&self) -> usize {
        self.options.len()
    }
}

fn better(power: f64, feasible: bool, than_power: f64, than_feasible: bool) -> bool {
    // Feasible solutions always beat infeasible ones at the same tile
    // count; otherwise strictly lower power wins (ties keep the
    // incumbent, which makes the merge order-deterministic).
    match (feasible, than_feasible) {
        (true, false) => true,
        (false, true) => false,
        _ => power < than_power,
    }
}

/// Reusable dynamic-program state for one worker: two tile-count layers
/// (current and next) plus the per-layer winning tile choices that let a
/// finished curve reconstruct its allocation without per-transition
/// clones.  `power == f64::INFINITY` marks an unreachable cell.
pub(crate) struct DpScratch {
    power: Vec<f64>,
    feasible: Vec<bool>,
    next_power: Vec<f64>,
    next_feasible: Vec<bool>,
    /// `choices[layer * (budget + 1) + total]` = tiles the winner of that
    /// cell assigned to group `layer`; walking layers backwards from a
    /// final cell reconstructs its allocation.
    choices: Vec<u32>,
    /// Largest reachable total of the final layer (0 when even the empty
    /// prefix is gone, i.e. the grouping cannot fit the budget).
    reach_max: usize,
}

impl DpScratch {
    pub fn new(budget: u32, max_groups: usize) -> Self {
        let cells = budget as usize + 1;
        DpScratch {
            power: vec![f64::INFINITY; cells],
            feasible: vec![false; cells],
            next_power: vec![f64::INFINITY; cells],
            next_feasible: vec![false; cells],
            choices: vec![0; cells * max_groups.max(1)],
            reach_max: 0,
        }
    }

    /// The `(power, feasible)` of the final layer's cell at `total`
    /// tiles, if reachable.
    fn cell(&self, total: usize) -> Option<(f64, bool)> {
        if self.power[total].is_finite() {
            Some((self.power[total], self.feasible[total]))
        } else {
            None
        }
    }

    /// Walk the recorded choices backwards to reconstruct the allocation
    /// of the final-layer cell at `total` tiles (one tile count per
    /// group, pipeline order).
    fn reconstruct(&self, groups: usize, cells: usize, total: usize) -> Vec<u32> {
        let mut allocation = vec![0u32; groups];
        let mut remaining = total;
        for (layer, slot) in allocation.iter_mut().enumerate().rev() {
            let tiles = self.choices[layer * cells + remaining];
            *slot = tiles;
            remaining -= tiles as usize;
        }
        debug_assert_eq!(remaining, 0, "choice chain must end at zero tiles");
        allocation
    }
}

/// Solve one grouping exactly: a knapsack-style dynamic program over the
/// groups that records, for every exact total tile count, the cheapest
/// cost and a backpointer (the tiles assigned to the last group), leaving
/// the full curve in `scratch`.  Returns the transitions examined.
pub(crate) fn grouping_dp(
    groups: &[(usize, usize)],
    arena: &IntervalArena,
    budget: u32,
    scratch: &mut DpScratch,
) -> u64 {
    let cells = budget as usize + 1;
    scratch.power[..cells].fill(f64::INFINITY);
    scratch.feasible[..cells].fill(false);
    scratch.power[0] = 0.0;
    scratch.feasible[0] = true;
    let mut reach_max = 0usize;
    let mut transitions = 0u64;
    for (layer, &(start, end)) in groups.iter().enumerate() {
        let options = arena.options(start, end);
        scratch.next_power[..cells].fill(f64::INFINITY);
        scratch.next_feasible[..cells].fill(false);
        let choice_row = &mut scratch.choices[layer * cells..(layer + 1) * cells];
        let mut next_max = 0usize;
        for used in 0..=reach_max {
            let base_power = scratch.power[used];
            if !base_power.is_finite() {
                continue;
            }
            let base_feasible = scratch.feasible[used];
            let headroom = budget as usize - used;
            for opt in options {
                let tiles = opt.tiles as usize;
                if tiles > headroom {
                    break;
                }
                transitions += 1;
                let total = used + tiles;
                let new_power = base_power + opt.power;
                let new_feasible = base_feasible && opt.feasible;
                if better(
                    new_power,
                    new_feasible,
                    scratch.next_power[total],
                    scratch.next_feasible[total],
                ) {
                    // The first touch of a cell always lands here (the
                    // incumbent is infinite), so `next_max` tracks every
                    // reachable total.
                    scratch.next_power[total] = new_power;
                    scratch.next_feasible[total] = new_feasible;
                    choice_row[total] = opt.tiles;
                    if total > next_max {
                        next_max = total;
                    }
                }
            }
        }
        std::mem::swap(&mut scratch.power, &mut scratch.next_power);
        std::mem::swap(&mut scratch.feasible, &mut scratch.next_feasible);
        reach_max = next_max;
    }
    scratch.reach_max = reach_max;
    transitions
}

/// A worker's incumbent for one exact tile count: cost plus the grouping
/// job index (for deterministic, enumeration-order tie-breaks) and the
/// allocation reconstructed when the incumbent was set.
struct LocalBest {
    power: f64,
    feasible: bool,
    job: usize,
    allocation: Vec<u32>,
}

/// The grouping jobs of one exhaustive run: either the single
/// all-singleton grouping (any graph size) or partition bitmasks.
enum GroupingJobs {
    Singleton,
    Masks(Vec<u64>),
}

impl GroupingJobs {
    fn len(&self) -> usize {
        match self {
            GroupingJobs::Singleton => 1,
            GroupingJobs::Masks(masks) => masks.len(),
        }
    }

    /// Decode job `index` into `out`.
    fn decode(&self, n: usize, index: usize, out: &mut Grouping) {
        match self {
            GroupingJobs::Singleton => {
                out.clear();
                out.extend((0..n).map(|i| (i, i + 1)));
            }
            GroupingJobs::Masks(masks) => grouping_from_mask_into(n, masks[index], out),
        }
    }
}

/// What one exhaustive worker hands back: its per-tile-count incumbents,
/// transitions examined and groupings comm-pruned.
struct WorkerTally {
    local: Vec<Option<LocalBest>>,
    evaluated: u64,
    comm_pruned: u64,
}

/// The shared, read-only state of one exhaustive run; its workers also
/// share the work-stealing cursor passed to [`ExhaustiveRun::work`].
struct ExhaustiveRun<'a> {
    ctx: &'a GraphContext,
    arena: &'a IntervalArena,
    jobs: &'a GroupingJobs,
    budget: u32,
    comm: Option<CommSpec>,
    steal_chunk: usize,
}

impl ExhaustiveRun<'_> {
    /// One worker's body: steal chunks of grouping jobs off `cursor`
    /// until none are left, solving each grouping and keeping the
    /// cheapest candidate per exact tile count.
    fn work(&self, cursor: &AtomicUsize) -> WorkerTally {
        let n = self.ctx.n;
        let cells = self.budget as usize + 1;
        let job_count = self.jobs.len();
        let mut scratch = DpScratch::new(self.budget, n);
        let mut groups: Grouping = Vec::with_capacity(n);
        let mut tally = WorkerTally {
            local: (0..cells).map(|_| None).collect(),
            evaluated: 0,
            comm_pruned: 0,
        };
        loop {
            let first = cursor.fetch_add(self.steal_chunk, Ordering::Relaxed);
            if first >= job_count {
                break;
            }
            for job in first..(first + self.steal_chunk).min(job_count) {
                self.jobs.decode(n, job, &mut groups);
                // Communication prune: a grouping whose cross-column
                // traffic cannot fit the TDM frame is unschedulable under
                // any tile allocation — skip its DP entirely.
                if let Some(comm) = self.comm {
                    if self.ctx.grouping_cross_words(&groups) > comm.capacity() {
                        tally.comm_pruned += 1;
                        continue;
                    }
                }
                tally.evaluated += grouping_dp(&groups, self.arena, self.budget, &mut scratch);
                for (tiles, slot) in tally
                    .local
                    .iter_mut()
                    .enumerate()
                    .take(scratch.reach_max + 1)
                    .skip(1)
                {
                    let Some((power, feasible)) = scratch.cell(tiles) else {
                        continue;
                    };
                    // Jobs are stolen in ascending order, so
                    // keep-incumbent-on-tie equals lowest-job-wins within
                    // a worker.
                    let improves = match slot {
                        Some(c) => better(power, feasible, c.power, c.feasible),
                        None => true,
                    };
                    if improves {
                        *slot = Some(LocalBest {
                            power,
                            feasible,
                            job,
                            allocation: scratch.reconstruct(groups.len(), cells, tiles),
                        });
                    }
                }
            }
        }
        tally
    }
}

/// Exhaustively enumerate every contiguous grouping (up to
/// `max_group_size` actors per group) and solve each exactly, fanning the
/// groupings across `threads` workers that steal fixed-size chunks off a
/// shared atomic cursor (so a skewed grouping cannot idle the pool the
/// way a static split can); a single worker runs on the caller's thread.
/// The merged curve holds, for every reachable exact tile count, the
/// globally cheapest candidate; exact-cost ties go to the
/// earliest-enumerated grouping, independent of thread count.
///
/// `arena` must have been built for `ctx` with the same `budget` and
/// `max_group_size` (see [`IntervalArena::build`]); callers running
/// several searches over one graph build it once and share it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exhaustive(
    ctx: &GraphContext,
    arena: &IntervalArena,
    budget: u32,
    max_group_size: usize,
    threads: usize,
    comm: Option<CommSpec>,
) -> SearchOutcome {
    let started = Instant::now();
    let n = ctx.n;

    // Every grouping to solve.  The all-singleton grouping (one actor per
    // column, the structure of every Table 4 mapping) is built directly;
    // larger group sizes enumerate partition bitmasks.
    let jobs = if max_group_size <= 1 {
        GroupingJobs::Singleton
    } else {
        let all = 1u64 << (n - 1);
        GroupingJobs::Masks(
            (0..all)
                .filter(|&m| mask_respects_group_size(n, m, max_group_size))
                .collect(),
        )
    };
    let job_count = jobs.len();

    let cells = budget as usize + 1;
    let workers = threads.max(1).min(job_count.max(1));
    let run = ExhaustiveRun {
        ctx,
        arena,
        jobs: &jobs,
        budget,
        comm,
        // Chunks small enough to balance skew, large enough that the
        // atomic cursor stays cold.
        steal_chunk: job_count.div_ceil(workers * 8).clamp(1, 64),
    };
    let cursor = AtomicUsize::new(0);
    // A single worker runs on the caller's thread: spawning and joining a
    // scoped thread costs more than a small search itself.
    let results: Vec<WorkerTally> = if workers == 1 {
        vec![run.work(&cursor)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| run.work(&cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };

    let mut merged: Vec<Option<LocalBest>> = (0..cells).map(|_| None).collect();
    let mut evaluated = 0u64;
    let mut comm_pruned = 0u64;
    for tally in results {
        evaluated += tally.evaluated;
        comm_pruned += tally.comm_pruned;
        for (slot, candidate) in merged.iter_mut().zip(tally.local) {
            let Some(candidate) = candidate else { continue };
            let improves = match slot {
                Some(c) => {
                    if better(candidate.power, candidate.feasible, c.power, c.feasible) {
                        true
                    } else if better(c.power, c.feasible, candidate.power, candidate.feasible) {
                        false
                    } else {
                        // Exact-cost tie: the earliest-enumerated grouping
                        // wins, matching a sequential merge.
                        candidate.job < c.job
                    }
                }
                None => true,
            };
            if improves {
                *slot = Some(candidate);
            }
        }
    }

    let mut decode_scratch: Grouping = Vec::with_capacity(n);
    let curve = merged
        .into_iter()
        .flatten()
        .map(|best| {
            jobs.decode(n, best.job, &mut decode_scratch);
            Candidate {
                groups: decode_scratch.clone(),
                allocation: best.allocation,
                power_mw: best.power,
                feasible: best.feasible,
            }
        })
        .collect();

    SearchOutcome {
        curve,
        stats: SearchStats {
            mappings_evaluated: evaluated,
            groupings_examined: job_count as u64,
            states_pruned: 0,
            groupings_comm_pruned: comm_pruned,
            threads_used: workers,
            elapsed_seconds: started.elapsed().as_secs_f64(),
        },
    }
}

/// Sentinel for "no arena node" (the root of a backpointer chain).
const NO_NODE: u32 = u32::MAX;

/// Sentinel start marking the root partial, which has no group of its
/// own.
const NO_GROUP: u32 = u32::MAX;

/// One materialized link of a beam partial's backpointer chain: the group
/// `start..end` placed on `tiles` tiles, extending `parent`.
#[derive(Debug, Clone, Copy)]
struct BeamNode {
    parent: u32,
    start: u32,
    end: u32,
    tiles: u32,
}

/// One partial solution of the beam search: the first `boundary` actors
/// grouped and allocated.  Instead of carrying its grouping and
/// allocation as vectors (cloned on every transition), a partial holds a
/// backpointer into the node arena plus its own last group; the chain is
/// materialized one node per *surviving* partial and full vectors are
/// reconstructed only for the final layer.
#[derive(Debug, Clone, Copy)]
struct Partial {
    tiles: u32,
    power: f64,
    feasible: bool,
    /// Cross-column words per iteration already committed by the prefix's
    /// completed groups (always 0 when the search has no `CommSpec`; the
    /// increment per new group is [`GraphContext::group_cross_out`], which
    /// depends only on the group itself, so the total is exact for any
    /// completion).
    cross: u64,
    /// Arena node of the already-materialized prefix (`NO_NODE` = root).
    parent: u32,
    /// This partial's own group (`start == NO_GROUP` for the root).
    start: u32,
    end: u32,
    choice: u32,
}

/// The beam engine's communication prune: the TDM frame capacity plus a
/// per-interval table of [`GraphContext::group_cross_out`] increments, so
/// expansions extend a partial's committed cross words in O(1) and drop
/// any prefix that already overflows the frame (cross words only grow).
struct CommPrune {
    capacity: u64,
    stride: usize,
    /// `delta[start * stride + end]` = cross words gained by appending the
    /// group `start..end`.
    delta: Vec<u64>,
}

impl CommPrune {
    fn new(ctx: &GraphContext, max_group_size: usize, capacity: u64) -> Self {
        let n = ctx.n;
        let stride = n + 1;
        let mut delta = vec![0u64; n * stride];
        for start in 0..n {
            for end in start + 1..=(start + max_group_size).min(n) {
                delta[start * stride + end] = ctx.group_cross_out(start, end);
            }
        }
        CommPrune {
            capacity,
            stride,
            delta,
        }
    }

    #[inline]
    fn delta(&self, start: usize, end: usize) -> u64 {
        self.delta[start * self.stride + end]
    }
}

/// A `(power, cross)` Pareto front kept as a staircase: power strictly
/// ascending, cross strictly descending.  Whether a point is dominated
/// (some step no higher in both) is one binary search: the last step at
/// or below its power holds the least cross of every step that could
/// dominate it.  Without a `CommSpec` every cross is 0 and the staircase
/// degenerates to a single cheapest step.
#[derive(Debug, Default)]
struct Staircase {
    steps: Vec<(f64, u64)>,
}

impl Staircase {
    fn clear(&mut self) {
        self.steps.clear();
    }

    /// Is `(power, cross)` dominated by (or equal to) some step?
    #[inline]
    fn dominates(&self, power: f64, cross: u64) -> bool {
        let at_or_below = self.steps.partition_point(|&(p, _)| p <= power);
        at_or_below > 0 && self.steps[at_or_below - 1].1 <= cross
    }

    /// Add a point the staircase does not dominate, dropping the steps it
    /// dominates (a contiguous run starting at its power).
    fn insert(&mut self, power: f64, cross: u64) {
        let lo = self.steps.partition_point(|&(p, _)| p < power);
        let hi = lo + self.steps[lo..].partition_point(|&(_, c)| c >= cross);
        if lo == hi {
            self.steps.insert(lo, (power, cross));
        } else {
            self.steps[lo] = (power, cross);
            self.steps.drain(lo + 1..hi);
        }
    }
}

/// One target layer of the beam: its partials bucketed by exact tile
/// count, each bucket in insertion order, plus per-bucket admission
/// fronts over everything the bucket has admitted (`any`) and over its
/// feasible partials alone (`feasible`).
///
/// A newcomer dominated at its own tile count by an earlier admitted
/// partial — by an earlier *feasible* one if the newcomer is feasible —
/// is rejected on arrival: that earlier partial precedes it in
/// [`BucketLayer::prune_into`]'s walk and would make the walk drop it
/// anyway.  Rejections count towards `states_pruned`, so the counters
/// match a prune of the whole unfiltered layer.
struct BucketLayer {
    buckets: Vec<Vec<Partial>>,
    any: Vec<Staircase>,
    feasible: Vec<Staircase>,
    /// Newcomers rejected since the last prune.
    rejected: u64,
}

impl BucketLayer {
    fn new(cells: usize) -> Self {
        BucketLayer {
            buckets: (0..cells).map(|_| Vec::new()).collect(),
            any: (0..cells).map(|_| Staircase::default()).collect(),
            feasible: (0..cells).map(|_| Staircase::default()).collect(),
            rejected: 0,
        }
    }

    /// Admit `partial` into its tile bucket unless an earlier admitted
    /// partial there already dominates it.
    #[inline]
    fn admit(&mut self, partial: Partial) {
        let tiles = partial.tiles as usize;
        let (power, cross) = (partial.power, partial.cross);
        let any = &mut self.any[tiles];
        if partial.feasible {
            let feasible = &mut self.feasible[tiles];
            if feasible.dominates(power, cross) {
                self.rejected += 1;
                return;
            }
            feasible.insert(power, cross);
            if !any.dominates(power, cross) {
                any.insert(power, cross);
            }
        } else {
            if any.dominates(power, cross) {
                self.rejected += 1;
                return;
            }
            any.insert(power, cross);
        }
        self.buckets[tiles].push(partial);
    }

    /// Dominance-prune the layer into `kept` (cleared first) and empty it
    /// for reuse: keep, per exact tile count, the cheapest partial, then
    /// drop any partial dominated by a cheaper-or-equal partial with
    /// fewer tiles.  Pruning across tile counts is sound for the best
    /// solution and the Pareto frontier because a prefix with fewer
    /// tiles and less power can absorb any completion its competitor
    /// can.
    ///
    /// Two staircases survive: partials improving on every earlier
    /// partial overall, and feasible partials improving on every earlier
    /// *feasible* partial (so the cheapest feasible prefix is never
    /// shadowed by a cheaper infeasible one).  Each staircase is capped at
    /// `width` entries independently, discarding its highest-power
    /// entries — without a `CommSpec` a staircase holds at most one
    /// partial per tile count, so `width ≥ budget + 1` never drops
    /// anything and the beam stays exact.
    ///
    /// Under a `CommSpec` a partial's committed cross words join the
    /// dominance check: each staircase becomes a Pareto front over
    /// `(power, cross)`, because a completion's cross increment is
    /// independent of the prefix — a pricier prefix with fewer committed
    /// cross words may be the only one whose completions fit the TDM
    /// frame.  A front may then hold several partials per tile count, so
    /// exactness needs `width` at least the largest per-layer front (the
    /// agreement property test sizes it generously).
    ///
    /// The walk visits buckets in tile order, each stably sorted by
    /// `(power, cross)` — exactly a stable `(tiles, power, cross)` sort
    /// of the layer — so survivors come out in that order, ties in
    /// arrival order.  Returns the partials discarded, rejections on
    /// arrival included.
    fn prune_into(
        &mut self,
        width: usize,
        kept: &mut Vec<Partial>,
        scratch: &mut PruneScratch,
    ) -> u64 {
        kept.clear();
        scratch.any.clear();
        scratch.feasible.clear();
        scratch.on_feasible.clear();
        let mut before = std::mem::take(&mut self.rejected) as usize;
        for bucket in &mut self.buckets {
            before += bucket.len();
            bucket.sort_by(|a, b| {
                a.power
                    .partial_cmp(&b.power)
                    .expect("finite power")
                    .then(a.cross.cmp(&b.cross))
            });
            for partial in bucket.drain(..) {
                let (power, cross) = (partial.power, partial.cross);
                let improves_any = !scratch.any.dominates(power, cross);
                let improves_feasible =
                    partial.feasible && !scratch.feasible.dominates(power, cross);
                if improves_any {
                    scratch.any.insert(power, cross);
                }
                if improves_feasible {
                    scratch.feasible.insert(power, cross);
                }
                // A feasible partial on both staircases is stored once,
                // on the feasible one.
                if improves_any || improves_feasible {
                    kept.push(partial);
                    scratch.on_feasible.push(improves_feasible);
                }
            }
        }
        for front in self.any.iter_mut().chain(&mut self.feasible) {
            front.clear();
        }
        scratch.cap(kept, width);
        (before - kept.len()) as u64
    }
}

/// The cross-tile fronts and cap bookkeeping of
/// [`BucketLayer::prune_into`], kept across layers to reuse their
/// allocations.
#[derive(Default)]
struct PruneScratch {
    any: Staircase,
    feasible: Staircase,
    /// Per kept partial: does it sit on the feasible staircase?
    on_feasible: Vec<bool>,
    /// Indices into the kept partials of the staircase being capped.
    order: Vec<usize>,
    dropped: Vec<bool>,
}

impl PruneScratch {
    /// Cap each staircase of `kept` at `width` entries by discarding its
    /// highest-power entries; among equal powers the entry with fewer
    /// tiles, then fewer cross words, goes first (entries are unique
    /// within a staircase, so the order is total).  `kept` stays in walk
    /// order.
    fn cap(&mut self, kept: &mut Vec<Partial>, width: usize) {
        let mut any_dropped = false;
        for staircase in [false, true] {
            self.order.clear();
            self.order
                .extend((0..kept.len()).filter(|&i| self.on_feasible[i] == staircase));
            if self.order.len() <= width {
                continue;
            }
            if !any_dropped {
                self.dropped.clear();
                self.dropped.resize(kept.len(), false);
                any_dropped = true;
            }
            self.order.sort_by(|&a, &b| {
                let (a, b) = (&kept[a], &kept[b]);
                b.power
                    .partial_cmp(&a.power)
                    .expect("finite power")
                    .then(a.tiles.cmp(&b.tiles))
                    .then(a.cross.cmp(&b.cross))
            });
            for &index in &self.order[..self.order.len() - width] {
                self.dropped[index] = true;
            }
        }
        if any_dropped {
            let mut index = 0;
            kept.retain(|_| {
                index += 1;
                !self.dropped[index - 1]
            });
        }
    }
}

/// A materialized expansion source: one surviving partial of the previous
/// layer, reduced to the fields its extensions need.
#[derive(Debug, Clone, Copy)]
struct Source {
    node: u32,
    tiles: u32,
    power: f64,
    feasible: bool,
    cross: u64,
}

/// Materialize the surviving partials of a layer as arena nodes, so their
/// extensions can reference them by index instead of cloning vectors.
/// Fills `sources` (cleared first) with the expansion sources in layer
/// order.
fn materialize_layer(layer: &[Partial], nodes: &mut Vec<BeamNode>, sources: &mut Vec<Source>) {
    sources.clear();
    sources.extend(layer.iter().map(|p| {
        let node = if p.start == NO_GROUP {
            NO_NODE
        } else {
            nodes.push(BeamNode {
                parent: p.parent,
                start: p.start,
                end: p.end,
                tiles: p.choice,
            });
            (nodes.len() - 1) as u32
        };
        Source {
            node,
            tiles: p.tiles,
            power: p.power,
            feasible: p.feasible,
            cross: p.cross,
        }
    }));
}

/// Walk a final partial's backpointer chain into explicit grouping and
/// allocation vectors (pipeline order).
fn reconstruct_partial(nodes: &[BeamNode], partial: &Partial) -> (Grouping, Vec<u32>) {
    let mut groups: Grouping = Vec::new();
    let mut allocation: Vec<u32> = Vec::new();
    if partial.start != NO_GROUP {
        groups.push((partial.start as usize, partial.end as usize));
        allocation.push(partial.choice);
    }
    let mut cursor = partial.parent;
    while cursor != NO_NODE {
        let node = nodes[cursor as usize];
        groups.push((node.start as usize, node.end as usize));
        allocation.push(node.tiles);
        cursor = node.parent;
    }
    groups.reverse();
    allocation.reverse();
    (groups, allocation)
}

/// Extend every source partial with every tile option of the group
/// `layer..end`, handing each new partial to `emit`.  Returns the
/// transitions examined and the extensions skipped because their
/// committed cross words already overflow the TDM frame (cross words only
/// grow, so such a prefix can never complete feasibly).
fn expand_layer_end(
    arena: &IntervalArena,
    budget: u32,
    comm: Option<&CommPrune>,
    layer: usize,
    end: usize,
    sources: &[Source],
    mut emit: impl FnMut(Partial),
) -> (u64, u64) {
    let options = arena.options(layer, end);
    let mut count = 0u64;
    let mut comm_skipped = 0u64;
    for &source in sources {
        let cross = match comm {
            Some(prune) => {
                let cross = source.cross + prune.delta(layer, end);
                if cross > prune.capacity {
                    comm_skipped += options
                        .iter()
                        .take_while(|opt| source.tiles + opt.tiles <= budget)
                        .count() as u64;
                    continue;
                }
                cross
            }
            None => 0,
        };
        for opt in options {
            let total = source.tiles + opt.tiles;
            if total > budget {
                break;
            }
            count += 1;
            emit(Partial {
                tiles: total,
                power: source.power + opt.power,
                feasible: source.feasible && opt.feasible,
                cross,
                parent: source.node,
                start: layer as u32,
                end: end as u32,
                choice: opt.tiles,
            });
        }
    }
    (count, comm_skipped)
}

/// The bucketed layer `end`, taken from `spare` (or created) on first use.
fn target_layer<'a>(
    layers: &'a mut [Option<BucketLayer>],
    spare: &mut Vec<BucketLayer>,
    end: usize,
    cells: usize,
) -> &'a mut BucketLayer {
    layers[end].get_or_insert_with(|| spare.pop().unwrap_or_else(|| BucketLayer::new(cells)))
}

/// Beam search over grouping prefixes with dominance pruning: layer `i`
/// holds partial solutions covering actors `0..i`; each step extends a
/// layer with every possible next group, pruning each target layer to at
/// most `width` non-dominated partials.  With `width ≥ budget + 1` the
/// engine is exact for the best solution and the frontier.
///
/// Under a `comm` spec every partial tracks the cross-column words its
/// completed groups have already committed: extensions that overflow the
/// TDM frame are dropped as they form, and the dominance prune keeps the
/// `(power, cross)` Pareto front per staircase instead of power alone —
/// so a schedulable-but-pricier prefix is never shadowed by a cheaper
/// prefix whose completions cannot fit the frame.  The comm prune is
/// exact (property-tested against the exhaustive engine); width caps
/// under comm need head-room beyond `budget + 1` since a front may hold
/// several partials per tile count.
///
/// The search runs on the caller's thread: each layer's expansions go
/// straight into the target layers' buckets, in a fixed order (source
/// layer, then source, then tile option).  A layer's expansion is too
/// short to amortize handing it to worker threads, so the beam ignores
/// the configured thread count.
///
/// `arena` must have been built for `ctx` with the same `budget` and
/// `max_group_size` (see [`IntervalArena::build`]).
pub(crate) fn beam(
    ctx: &GraphContext,
    arena: &IntervalArena,
    budget: u32,
    max_group_size: usize,
    width: usize,
    comm: Option<CommSpec>,
) -> SearchOutcome {
    let started = Instant::now();
    let n = ctx.n;
    let width = width.max(1);
    let comm_prune = comm.map(|spec| CommPrune::new(ctx, max_group_size, spec.capacity()));
    let comm_prune = comm_prune.as_ref();

    let cells = budget as usize + 1;

    // Target layers are created on first use and recycled once pruned, so
    // at most `max_group_size` layers' buckets are live at a time.
    let mut layers: Vec<Option<BucketLayer>> = (0..=n).map(|_| None).collect();
    let mut spare: Vec<BucketLayer> = Vec::new();
    let mut prune_scratch = PruneScratch::default();
    let mut survivors: Vec<Partial> = vec![Partial {
        tiles: 0,
        power: 0.0,
        feasible: true,
        cross: 0,
        parent: NO_NODE,
        start: NO_GROUP,
        end: 0,
        choice: 0,
    }];
    let mut sources: Vec<Source> = Vec::new();
    let mut nodes: Vec<BeamNode> = Vec::new();
    let mut evaluated = 0u64;
    let mut groupings = 0u64;
    let mut pruned = 0u64;
    let mut comm_pruned = 0u64;
    let mut tally = |end: usize, count: u64, skipped: u64| {
        evaluated += count;
        comm_pruned += skipped;
        if end == n {
            groupings += count;
        }
    };

    for i in 0..n {
        if i > 0 {
            survivors.clear();
            if let Some(mut layer) = layers[i].take() {
                pruned += layer.prune_into(width, &mut survivors, &mut prune_scratch);
                spare.push(layer);
            }
        }
        if survivors.is_empty() {
            continue;
        }
        materialize_layer(&survivors, &mut nodes, &mut sources);
        for end in i + 1..=(i + max_group_size).min(n) {
            let target = target_layer(&mut layers, &mut spare, end, cells);
            let (count, skipped) =
                expand_layer_end(arena, budget, comm_prune, i, end, &sources, |p| {
                    target.admit(p)
                });
            tally(end, count, skipped);
        }
    }

    survivors.clear();
    if let Some(mut layer) = layers[n].take() {
        pruned += layer.prune_into(width, &mut survivors, &mut prune_scratch);
    }
    let curve = survivors
        .iter()
        .map(|p| {
            let (groups, allocation) = reconstruct_partial(&nodes, p);
            Candidate {
                groups,
                allocation,
                power_mw: p.power,
                feasible: p.feasible,
            }
        })
        .collect();
    SearchOutcome {
        curve,
        stats: SearchStats {
            mappings_evaluated: evaluated,
            groupings_examined: groupings,
            states_pruned: pruned,
            groupings_comm_pruned: comm_pruned,
            threads_used: 1,
            elapsed_seconds: started.elapsed().as_secs_f64(),
        },
    }
}

/// The clone-based reference engine the optimized core is property-tested
/// against: the seed implementation of the interval table and the
/// per-grouping dynamic program, kept verbatim (allocations and all).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::space::grouping_from_mask;

    /// Per-interval candidate options: `(tiles, power, feasible)`.
    pub type IntervalOptions = Vec<(u32, f64, bool)>;

    /// The seed's nested interval table.
    pub fn interval_table(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
    ) -> Vec<Vec<Option<IntervalOptions>>> {
        let n = ctx.n;
        let mut table: Vec<Vec<Option<IntervalOptions>>> = vec![vec![None; n + 1]; n];
        for (start, row) in table.iter_mut().enumerate() {
            let end_limit = (start + max_group_size).min(n);
            for (end, slot) in row
                .iter_mut()
                .enumerate()
                .take(end_limit + 1)
                .skip(start + 1)
            {
                let work = ctx.group_work(start, end);
                let cap = ctx.group_cap(start, end);
                let tokens = ctx.boundary_tokens(start, end);
                let options = candidates
                    .for_group(cap, budget)
                    .into_iter()
                    .map(|tiles| {
                        let col = evaluator.evaluate_column(work, cap, tokens, tiles);
                        (tiles, col.power.total_mw(), col.within_envelope)
                    })
                    .collect();
                *slot = Some(options);
            }
        }
        table
    }

    /// The seed's clone-based grouping DP: returns
    /// `dp[tiles] = (power, feasible, allocation)`.
    pub fn grouping_curve(
        groups: &Grouping,
        table: &[Vec<Option<IntervalOptions>>],
        budget: u32,
        evaluated: &mut u64,
    ) -> Vec<Option<(f64, bool, Vec<u32>)>> {
        let mut dp: Vec<Option<(f64, bool, Vec<u32>)>> = vec![None; budget as usize + 1];
        dp[0] = Some((0.0, true, Vec::new()));
        for &(start, end) in groups {
            let options = table[start][end].as_ref().expect("interval inside table");
            let mut next: Vec<Option<(f64, bool, Vec<u32>)>> = vec![None; budget as usize + 1];
            for (used, cell) in dp.iter().enumerate() {
                let Some((power, feasible, allocation)) = cell else {
                    continue;
                };
                for &(tiles, column_power, column_feasible) in options {
                    let total = used + tiles as usize;
                    if total > budget as usize {
                        break;
                    }
                    *evaluated += 1;
                    let new_power = power + column_power;
                    let new_feasible = *feasible && column_feasible;
                    let slot = &mut next[total];
                    let improves = match slot {
                        Some((p, f, _)) => better(new_power, new_feasible, *p, *f),
                        None => true,
                    };
                    if improves {
                        let mut alloc = allocation.clone();
                        alloc.push(tiles);
                        *slot = Some((new_power, new_feasible, alloc));
                    }
                }
            }
            dp = next;
        }
        dp
    }

    /// The sort-based layer prune the bucketed beam layers replaced,
    /// kept as the oracle for [`BucketLayer`]: dominance-prune a layer: keep, per exact tile count, the cheapest
    /// partial, then drop any partial dominated by a cheaper-or-equal partial
    /// with fewer tiles.  Pruning across tile counts is sound for the best
    /// solution and the Pareto frontier because a prefix with fewer tiles and
    /// less power can absorb any completion its competitor can.
    ///
    /// Two staircases survive: partials improving on every earlier partial
    /// overall, and feasible partials improving on every earlier *feasible*
    /// partial (so the cheapest feasible prefix is never shadowed by a
    /// cheaper infeasible one).  Each staircase is capped at `width` entries
    /// independently — a staircase holds at most one partial per tile count,
    /// so `width ≥ budget + 1` never drops anything and the beam stays exact.
    ///
    /// With `comm_aware` set, a partial's committed cross words join the
    /// dominance check: each staircase becomes a Pareto front over
    /// `(power, cross)`, because a completion's cross increment is
    /// independent of the prefix — a pricier prefix with fewer committed
    /// cross words may be the only one whose completions fit the TDM frame.
    /// A front may then hold several partials per tile count, so exactness
    /// needs `width` at least the largest per-layer front (the agreement
    /// property test sizes it generously); the cap discards the
    /// highest-power entries first.
    ///
    /// Returns the number of partials discarded.
    pub(super) fn prune_layer(layer: &mut Vec<Partial>, width: usize, comm_aware: bool) -> u64 {
        layer.sort_by(|a, b| {
            a.tiles
                .cmp(&b.tiles)
                .then(a.power.partial_cmp(&b.power).expect("finite power"))
                .then(a.cross.cmp(&b.cross))
        });
        let before = layer.len();
        let mut any_staircase: Vec<Partial> = Vec::new();
        let mut feasible_staircase: Vec<Partial> = Vec::new();
        if comm_aware {
            // Pareto fronts over (power, cross).  Entries are processed in
            // (tiles, power, cross) order, so every kept entry has no more
            // tiles than the candidate it is tested against; power and cross
            // must be checked explicitly.
            let mut any_front: Vec<(f64, u64)> = Vec::new();
            let mut feasible_front: Vec<(f64, u64)> = Vec::new();
            let dominated = |front: &[(f64, u64)], p: &Partial| {
                front
                    .iter()
                    .any(|&(power, cross)| power <= p.power && cross <= p.cross)
            };
            for partial in layer.drain(..) {
                let improves_any = !dominated(&any_front, &partial);
                let improves_feasible = partial.feasible && !dominated(&feasible_front, &partial);
                if improves_any {
                    any_front.push((partial.power, partial.cross));
                }
                if improves_feasible {
                    feasible_front.push((partial.power, partial.cross));
                }
                if improves_feasible {
                    feasible_staircase.push(partial);
                } else if improves_any {
                    any_staircase.push(partial);
                }
            }
            // Cap each front by discarding the highest-power entries (the
            // final sort below restores (tiles, power, cross) order).
            for staircase in [&mut any_staircase, &mut feasible_staircase] {
                if staircase.len() > width {
                    staircase.sort_by(|a, b| {
                        b.power
                            .partial_cmp(&a.power)
                            .expect("finite power")
                            .then(a.tiles.cmp(&b.tiles))
                            .then(a.cross.cmp(&b.cross))
                    });
                    staircase.drain(..staircase.len() - width);
                }
            }
        } else {
            let mut best_any = f64::INFINITY;
            let mut best_feasible = f64::INFINITY;
            for partial in layer.drain(..) {
                let improves_any = partial.power < best_any;
                let improves_feasible = partial.feasible && partial.power < best_feasible;
                if improves_any {
                    best_any = partial.power;
                }
                if improves_feasible {
                    best_feasible = partial.power;
                }
                // A feasible partial on both staircases is stored once, on the
                // feasible one (it survives the same cap either way: both
                // staircases are strictly power-descending in tile order).
                if improves_feasible {
                    feasible_staircase.push(partial);
                } else if improves_any {
                    any_staircase.push(partial);
                }
            }
            // Powers are strictly descending along each staircase; keep the
            // lowest-power tail of each.
            for staircase in [&mut any_staircase, &mut feasible_staircase] {
                if staircase.len() > width {
                    staircase.drain(..staircase.len() - width);
                }
            }
        }
        let mut kept = any_staircase;
        kept.append(&mut feasible_staircase);
        kept.sort_by(|a, b| {
            a.tiles
                .cmp(&b.tiles)
                .then(a.power.partial_cmp(&b.power).expect("finite power"))
                .then(a.cross.cmp(&b.cross))
        });
        let pruned = (before - kept.len()) as u64;
        *layer = kept;
        pruned
    }

    /// The seed's sequential exhaustive merge: enumerate every grouping,
    /// solve each with [`grouping_curve`], and keep the cheapest candidate
    /// per exact tile count (earliest grouping wins exact-cost ties).
    pub fn exhaustive(
        ctx: &GraphContext,
        evaluator: &Evaluator,
        candidates: TileCandidates,
        budget: u32,
        max_group_size: usize,
    ) -> (Vec<Candidate>, u64) {
        let n = ctx.n;
        let table = interval_table(ctx, evaluator, candidates, budget, max_group_size);
        let groupings: Vec<Grouping> = if max_group_size <= 1 {
            vec![(0..n).map(|i| (i, i + 1)).collect()]
        } else {
            let all = 1u64 << (n - 1);
            (0..all)
                .filter(|&m| mask_respects_group_size(n, m, max_group_size))
                .map(|m| grouping_from_mask(n, m))
                .collect()
        };
        let mut merged: Vec<Option<Candidate>> = vec![None; budget as usize + 1];
        let mut evaluated = 0u64;
        for groups in &groupings {
            let dp = grouping_curve(groups, &table, budget, &mut evaluated);
            for (tiles, cell) in dp.iter().enumerate().skip(1) {
                let Some((power, feasible, allocation)) = cell else {
                    continue;
                };
                let slot = &mut merged[tiles];
                let improves = match slot {
                    Some(c) => better(*power, *feasible, c.power_mw, c.feasible),
                    None => true,
                };
                if improves {
                    *slot = Some(Candidate {
                        groups: groups.clone(),
                        allocation: allocation.clone(),
                        power_mw: *power,
                        feasible: *feasible,
                    });
                }
            }
        }
        (merged.into_iter().flatten().collect(), evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::grouping_from_mask;
    use proptest::prelude::*;
    use synchro_sdf::SdfGraph;

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

    fn context_and_evaluator(graph: &SdfGraph) -> (GraphContext, Evaluator) {
        let ctx = GraphContext::new(graph).unwrap();
        let evaluator = Evaluator::new(&synchro_power::Technology::isca2004(), 1e6, 1.0);
        (ctx, evaluator)
    }

    const CAP_CHOICES: [u32; 6] = [1, 2, 4, 8, 16, 32];

    #[test]
    fn arena_matches_the_reference_table_bit_for_bit() {
        let graph = chain(&[60, 100, 5, 380], &[16, 16, 4, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        for candidates in [TileCandidates::PowersOfTwo, TileCandidates::All] {
            for max_group in [1usize, 2, 4] {
                let arena = IntervalArena::build(&ctx, &evaluator, candidates, 24, max_group);
                let table = reference::interval_table(&ctx, &evaluator, candidates, 24, max_group);
                for (start, row) in table.iter().enumerate() {
                    for (end, slot) in row.iter().enumerate() {
                        let flat = arena.options(start, end);
                        match slot {
                            None => assert!(flat.is_empty(), "{start}..{end} should be unused"),
                            Some(options) => {
                                assert_eq!(flat.len(), options.len());
                                for (a, &(tiles, power, feasible)) in flat.iter().zip(options) {
                                    assert_eq!(a.tiles, tiles);
                                    assert_eq!(a.power.to_bits(), power.to_bits());
                                    assert_eq!(a.feasible, feasible);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One cell of the reference curve shape: `(power, feasible,
    /// allocation)` when the tile count is reachable.
    type CurveCell = Option<(f64, bool, Vec<u32>)>;

    /// Expand the backpointer DP's final layer into the reference curve
    /// shape for comparison.
    fn dp_full_curve(
        groups: &Grouping,
        arena: &IntervalArena,
        budget: u32,
        scratch: &mut DpScratch,
    ) -> (Vec<CurveCell>, u64) {
        let transitions = grouping_dp(groups, arena, budget, scratch);
        let cells = budget as usize + 1;
        let curve = (0..cells)
            .map(|tiles| {
                scratch.cell(tiles).map(|(power, feasible)| {
                    (
                        power,
                        feasible,
                        scratch.reconstruct(groups.len(), cells, tiles),
                    )
                })
            })
            .collect();
        (curve, transitions)
    }

    /// How the prune oracle draws a random beam layer.
    struct LayerSpec<'a> {
        budget: u32,
        tiles: &'a [u32],
        /// Power picks, taken modulo `power_levels`: few levels make
        /// exact power ties common.
        powers: &'a [u32],
        power_levels: u32,
        /// Cross-word picks (ignored without comm, where cross is 0).
        crosses: &'a [u64],
        comm: bool,
        /// Feasibility picks (0 = infeasible).
        feasible: &'a [u32],
        /// Extra copies of each partial: same tiles, power and cross,
        /// feasibility drawn afresh.
        duplicates: &'a [u32],
        shuffle_seed: u64,
        /// Arrive in descending power (ties shuffled), so nearly every
        /// newcomer is admitted and buckets grow long.
        descending: bool,
    }

    /// A random beam layer for the prune oracle.  `parent` carries each
    /// partial's arrival index so survivor sequences can be compared tie
    /// for tie.
    fn random_layer(spec: &LayerSpec) -> Vec<Partial> {
        let mut layer = Vec::new();
        for (i, &t) in spec.tiles.iter().enumerate() {
            let pick = |values: &[u32], k: usize| values[(i + k) % values.len()];
            for copy in 0..=pick(spec.duplicates, 0) as usize {
                layer.push(Partial {
                    tiles: t % (spec.budget + 1),
                    power: 10.0 + f64::from(pick(spec.powers, 0) % spec.power_levels) * 0.25,
                    feasible: pick(spec.feasible, copy) != 0,
                    cross: if spec.comm {
                        spec.crosses[i % spec.crosses.len()]
                    } else {
                        0
                    },
                    parent: 0,
                    start: 0,
                    end: 1,
                    choice: 0,
                });
            }
        }
        // Fisher–Yates with a splitmix64 stream.
        let mut state = spec.shuffle_seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..layer.len()).rev() {
            layer.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        if spec.descending {
            layer.sort_by(|a, b| b.power.partial_cmp(&a.power).expect("finite power"));
        }
        for (id, partial) in layer.iter_mut().enumerate() {
            partial.parent = id as u32;
        }
        layer
    }

    proptest! {
        /// Bucketed admission followed by [`BucketLayer::prune_into`]
        /// keeps exactly the survivor sequence of the sort-based
        /// reference prune, ties included, and reports the same pruned
        /// count — with and without comm, with widths below and above
        /// the front size, and on a reused (recycled) layer.
        #[test]
        fn bucketed_prune_matches_sort_based_reference(
            budget in 1u32..24,
            tiles in prop::collection::vec(0u32..1_000, 0..160),
            powers in prop::collection::vec(0u32..64, 1..40),
            power_levels in 2u32..65,
            crosses in prop::collection::vec(0u64..5, 1..40),
            comm in any::<bool>(),
            feasible in prop::collection::vec(0u32..3, 1..40),
            duplicates in prop::collection::vec(0u32..3, 1..40),
            shuffle_seed in any::<u64>(),
            descending in any::<bool>(),
            width in 1usize..48,
        ) {
            let layer = random_layer(&LayerSpec {
                budget,
                tiles: &tiles,
                powers: &powers,
                power_levels,
                crosses: &crosses,
                comm,
                feasible: &feasible,
                duplicates: &duplicates,
                shuffle_seed,
                descending,
            });
            let mut expected = layer.clone();
            let expected_pruned = reference::prune_layer(&mut expected, width, comm);
            let expected_ids: Vec<u32> = expected.iter().map(|p| p.parent).collect();

            let mut bucketed = BucketLayer::new(budget as usize + 1);
            let mut scratch = PruneScratch::default();
            let mut kept = Vec::new();
            for round in 0..2 {
                for &partial in &layer {
                    bucketed.admit(partial);
                }
                let pruned = bucketed.prune_into(width, &mut kept, &mut scratch);
                let ids: Vec<u32> = kept.iter().map(|p| p.parent).collect();
                prop_assert_eq!(&ids, &expected_ids, "survivors differ in round {}", round);
                prop_assert_eq!(pruned, expected_pruned, "pruned count differs in round {}", round);
            }
        }

        /// The backpointer DP reconstructs exactly the same
        /// `(power, feasible, allocation)` curve as the retained
        /// clone-based reference, for random chains, groupings and
        /// budgets.
        #[test]
        fn backpointer_dp_matches_clone_based_reference(
            cycles in prop::collection::vec(1u64..2_000, 2..8),
            cap_picks in prop::collection::vec(0usize..6, 2..8),
            budget in 2u32..40,
            mask in 0u64..128,
        ) {
            let n = cycles.len().min(cap_picks.len());
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
            let graph = chain(&cycles[..n], &caps);
            let (ctx, evaluator) = context_and_evaluator(&graph);
            let groups = grouping_from_mask(n, mask);
            for candidates in [TileCandidates::PowersOfTwo, TileCandidates::All] {
                let arena = IntervalArena::build(&ctx, &evaluator, candidates, budget, n);
                let table =
                    reference::interval_table(&ctx, &evaluator, candidates, budget, n);
                let mut scratch = DpScratch::new(budget, n);
                let (fast, fast_count) = dp_full_curve(&groups, &arena, budget, &mut scratch);
                let mut slow_count = 0u64;
                let slow = reference::grouping_curve(&groups, &table, budget, &mut slow_count);
                prop_assert_eq!(fast_count, slow_count);
                for (tiles, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    match (a, b) {
                        (None, None) => {}
                        (Some((pa, fa, alloc_a)), Some((pb, fb, alloc_b))) => {
                            prop_assert_eq!(pa.to_bits(), pb.to_bits(), "power at {}", tiles);
                            prop_assert_eq!(fa, fb, "feasibility at {}", tiles);
                            prop_assert_eq!(alloc_a, alloc_b, "allocation at {}", tiles);
                        }
                        _ => prop_assert!(false, "reachability differs at {} tiles", tiles),
                    }
                }
            }
        }

        /// The work-stealing exhaustive engine returns bit-identical
        /// curves to the sequential clone-based reference, across 1 and
        /// 8 threads.
        #[test]
        fn exhaustive_matches_reference_across_thread_counts(
            cycles in prop::collection::vec(1u64..2_000, 2..6),
            cap_picks in prop::collection::vec(0usize..6, 2..6),
            budget in 2u32..32,
        ) {
            let n = cycles.len().min(cap_picks.len());
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
            let graph = chain(&cycles[..n], &caps);
            let (ctx, evaluator) = context_and_evaluator(&graph);
            let candidates = TileCandidates::PowersOfTwo;
            let (slow_curve, slow_count) =
                reference::exhaustive(&ctx, &evaluator, candidates, budget, n);
            let arena = IntervalArena::build(&ctx, &evaluator, candidates, budget, n);
            for threads in [1usize, 8] {
                let fast = exhaustive(&ctx, &arena, budget, n, threads, None);
                prop_assert_eq!(fast.stats.mappings_evaluated, slow_count);
                prop_assert_eq!(fast.curve.len(), slow_curve.len());
                for (a, b) in fast.curve.iter().zip(&slow_curve) {
                    prop_assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
                    prop_assert_eq!(a.feasible, b.feasible);
                    prop_assert_eq!(&a.groups, &b.groups);
                    prop_assert_eq!(&a.allocation, &b.allocation);
                }
            }
        }

        /// Under a `CommSpec` the comm-aware beam agrees with the
        /// exhaustive engine: same best feasible power (bit-for-bit),
        /// same overall minimum power, and emptiness only when every
        /// grouping overflows the frame.  This pins the exactness of the
        /// cross-word dominance dimension — the old final-layer-only
        /// filter could lose the only schedulable prefix to a cheaper
        /// unschedulable one.
        #[test]
        fn beam_comm_prune_agrees_with_exhaustive(
            cycles in prop::collection::vec(1u64..2_000, 2..7),
            cap_picks in prop::collection::vec(0usize..6, 2..7),
            budget in 2u32..24,
            capacity in 0u64..7,
        ) {
            let n = cycles.len().min(cap_picks.len());
            let caps: Vec<u32> = cap_picks[..n].iter().map(|&i| CAP_CHOICES[i]).collect();
            let graph = chain(&cycles[..n], &caps);
            let (ctx, evaluator) = context_and_evaluator(&graph);
            let candidates = TileCandidates::PowersOfTwo;
            let comm = Some(CommSpec::new(1, capacity));
            let arena = IntervalArena::build(&ctx, &evaluator, candidates, budget, n);
            let full = exhaustive(&ctx, &arena, budget, n, 2, comm);
            // Width generous enough that the (power, cross) fronts are
            // never capped: a chain of ≤ 6 unit-token edges has at most
            // 6 distinct cross values per tile count.
            let beamed = beam(&ctx, &arena, budget, n, 256, comm);
            for c in &beamed.curve {
                prop_assert!(
                    ctx.grouping_cross_words(&c.groups) <= capacity,
                    "beam kept an unschedulable grouping {:?}",
                    c.groups
                );
            }
            prop_assert_eq!(full.curve.is_empty(), beamed.curve.is_empty());
            let best_feasible = |curve: &[Candidate]| {
                curve
                    .iter()
                    .filter(|c| c.feasible)
                    .map(|c| c.power_mw)
                    .fold(f64::INFINITY, f64::min)
            };
            let best_any = |curve: &[Candidate]| {
                curve
                    .iter()
                    .map(|c| c.power_mw)
                    .fold(f64::INFINITY, f64::min)
            };
            prop_assert_eq!(
                best_feasible(&full.curve).to_bits(),
                best_feasible(&beamed.curve).to_bits()
            );
            prop_assert_eq!(
                best_any(&full.curve).to_bits(),
                best_any(&beamed.curve).to_bits()
            );
        }
    }

    #[test]
    fn identical_stages_tie_break_to_the_earliest_grouping() {
        // Every stage identical → huge numbers of exact-cost ties; the
        // merged winner must match the sequential reference exactly,
        // regardless of thread count.
        let graph = chain(&[100, 100, 100, 100], &[8, 8, 8, 8]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let (reference_curve, _) =
            reference::exhaustive(&ctx, &evaluator, TileCandidates::All, 16, 4);
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::All, 16, 4);
        for threads in [1usize, 3, 8] {
            let fast = exhaustive(&ctx, &arena, 16, 4, threads, None);
            assert_eq!(fast.curve.len(), reference_curve.len());
            for (a, b) in fast.curve.iter().zip(&reference_curve) {
                assert_eq!(a.groups, b.groups, "tie-break grouping differs");
                assert_eq!(a.allocation, b.allocation);
                assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
            }
        }
    }

    #[test]
    fn beam_reconstruction_matches_exhaustive_candidates() {
        let graph = chain(&[60, 100, 5, 380, 370], &[16, 16, 4, 32, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let budget = 20u32;
        let wide = budget as usize + 1;
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::PowersOfTwo, budget, 5);
        let full = exhaustive(&ctx, &arena, budget, 5, 2, None);
        let beamed = beam(&ctx, &arena, budget, 5, wide, None);
        // Every beam candidate must be a well-formed contiguous grouping
        // whose allocation sums to its tile count, and the best costs
        // must agree with the exhaustive engine.
        for c in &beamed.curve {
            let mut covered = 0usize;
            for &(start, end) in &c.groups {
                assert_eq!(start, covered, "groups must tile 0..n contiguously");
                covered = end;
            }
            assert_eq!(covered, ctx.n);
            assert_eq!(c.allocation.len(), c.groups.len());
            assert!(c.allocation.iter().sum::<u32>() <= budget);
        }
        let best = |curve: &[Candidate]| {
            curve
                .iter()
                .filter(|c| c.feasible)
                .map(|c| c.power_mw)
                .fold(f64::INFINITY, f64::min)
        };
        assert_eq!(best(&full.curve).to_bits(), best(&beamed.curve).to_bits());
    }

    #[test]
    fn comm_prune_drops_unschedulable_groupings_in_both_engines() {
        // A 4-stage chain with 1-token edges: the all-singleton grouping
        // crosses 3 boundaries (3 words/iteration), a 2+2 fusion crosses
        // one (1 word).  A 2-slot frame must reject every grouping with
        // more than 2 cross words but keep the fused ones.
        let graph = chain(&[60, 100, 5, 380], &[16, 16, 4, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let comm = Some(CommSpec::new(1, 2));
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::PowersOfTwo, 24, 4);
        let full = exhaustive(&ctx, &arena, 24, 4, 2, comm);
        assert!(full.stats.groupings_comm_pruned > 0);
        for c in &full.curve {
            assert!(ctx.grouping_cross_words(&c.groups) <= 2, "{:?}", c.groups);
        }
        let beamed = beam(&ctx, &arena, 24, 4, 25, comm);
        // The beam tracks committed cross words per partial, so every
        // surviving candidate fits the frame.  (It need not report comm
        // prunes here: a dominated overflowing prefix can fall to the
        // (power, cross) front before its extensions are ever attempted.)
        for c in &beamed.curve {
            assert!(ctx.grouping_cross_words(&c.groups) <= 2, "{:?}", c.groups);
        }
        // The surviving best costs agree between the engines.
        let best = |curve: &[Candidate]| {
            curve
                .iter()
                .filter(|c| c.feasible)
                .map(|c| c.power_mw)
                .fold(f64::INFINITY, f64::min)
        };
        assert_eq!(best(&full.curve).to_bits(), best(&beamed.curve).to_bits());
        // A frame with no capacity prunes everything once fusion cannot
        // hide all the traffic (groups of at most 2 leave ≥1 cross word).
        let arena2 = IntervalArena::build(&ctx, &evaluator, TileCandidates::PowersOfTwo, 24, 2);
        let none = exhaustive(&ctx, &arena2, 24, 2, 2, Some(CommSpec::new(1, 0)));
        assert!(none.curve.is_empty());
        assert!(none.stats.groupings_comm_pruned > 0);
        let none_beam = beam(&ctx, &arena2, 24, 2, 25, Some(CommSpec::new(1, 0)));
        assert!(none_beam.curve.is_empty());
        assert!(none_beam.stats.groupings_comm_pruned > 0);
    }

    #[test]
    fn shared_eval_cache_serves_repeat_arena_builds() {
        let graph = chain(&[60, 100, 5, 380], &[16, 16, 4, 32]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let mut cache = EvalCache::default();
        let first = IntervalArena::build_with_cache(
            &ctx,
            &evaluator,
            TileCandidates::PowersOfTwo,
            24,
            4,
            &mut cache,
        );
        let hits_after_first = cache.hits();
        let keys_after_first = cache.distinct_keys();
        let second = IntervalArena::build_with_cache(
            &ctx,
            &evaluator,
            TileCandidates::PowersOfTwo,
            24,
            4,
            &mut cache,
        );
        // A rebuild answers every option from the cache and evaluates
        // nothing new.
        assert_eq!(
            cache.hits(),
            hits_after_first + second.option_count() as u64
        );
        assert_eq!(cache.distinct_keys(), keys_after_first);
        for start in 0..ctx.n {
            for end in 0..=ctx.n {
                let a = first.options(start, end);
                let b = second.options(start, end);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.tiles, y.tiles);
                    assert_eq!(x.power.to_bits(), y.power.to_bits());
                    assert_eq!(x.feasible, y.feasible);
                }
            }
        }
        // A power-of-two budget offers fewer tile counts per interval but
        // every one of them is a key the cache already holds.
        let before = cache.hits();
        let smaller = IntervalArena::build_with_cache(
            &ctx,
            &evaluator,
            TileCandidates::PowersOfTwo,
            8,
            4,
            &mut cache,
        );
        assert_eq!(cache.hits(), before + smaller.option_count() as u64);
        assert_eq!(cache.distinct_keys(), keys_after_first);
    }

    #[test]
    fn dead_groupings_contribute_nothing() {
        // 3 singleton groups but a budget of 2: no grouping fits, except
        // via fusion.
        let graph = chain(&[10, 10, 10], &[4, 4, 4]);
        let (ctx, evaluator) = context_and_evaluator(&graph);
        let arena = IntervalArena::build(&ctx, &evaluator, TileCandidates::All, 2, 1);
        let mut scratch = DpScratch::new(2, 3);
        let groups: Grouping = vec![(0, 1), (1, 2), (2, 3)];
        let transitions = grouping_dp(&groups, &arena, 2, &mut scratch);
        assert!(transitions > 0, "partial prefixes are still explored");
        assert_eq!(scratch.reach_max, 0, "no complete assignment fits");
        assert!(scratch.cell(1).is_none());
        assert!(scratch.cell(2).is_none());
    }
}
