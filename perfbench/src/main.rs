//! End-to-end request benchmark for the Synchroscalar library.
//!
//! One client thread sends a seeded, closed-loop stream of requests —
//! `(graph, rate, budget, structure, tier, frames, fault)` tuples —
//! through explore → realize → compile → execute → analyze, checks every
//! output, and prints the metrics named in `BENCHMARK.json`, the last
//! line being one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
//! untraced and traced blocks of requests and reports the per-layer
//! metrics from the spans the traced ones record.

mod client;
mod report;
mod requests;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Context, Digest, Outcome, EXPLORER_THREADS};
use report::{json_string, median, metrics_json, quantile, Metric};
use requests::{Request, Workload};
use spans::Recorder;

const USAGE: &str = "usage: perfbench --workload <design_sweep|long_trace> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Where each run's manifest, metrics and spans are written.
const RESULTS_DIR: &str = "perfbench/results";
/// The seed whose warm-up digests are pinned below.
const COMMITTED_SEED: u64 = 1;
/// Warm-up digest of every simulated statistic at [`COMMITTED_SEED`].  A
/// change made only for speed must leave these identical.
const COMMITTED_DIGESTS: [(Workload, u64); 2] = [
    (Workload::DesignSweep, 0xbb0f_ffe7_9622_092a),
    (Workload::LongTrace, 0xa309_7542_ce41_5dac),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// The state a timed run starts from.
struct Setup {
    ctx: Context,
    requests: Vec<Request>,
    /// Digest over the warm-up requests' outcomes.
    digest: u64,
}

fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let ctx = Context::new()?;
    let requests = requests::generate(workload, seed, &ctx.column_counts());
    let mut rec = Recorder::new(Instant::now());
    let mut digest = Digest::new();
    // Warm up on the first block, which holds every stratum once; its
    // outcomes form the run's digest.
    for (i, request) in requests.iter().take(workload.block_len()).enumerate() {
        let outcome = run_one(&ctx, workload, request, &mut rec)
            .map_err(|e| format!("warm-up request {i} ({request}) failed: {e}"))?;
        digest.add(outcome.digest);
    }
    Ok(Setup {
        ctx,
        requests,
        digest: digest.value(),
    })
}

/// Run one request, turning a panic into a failure.
fn run_one(
    ctx: &Context,
    workload: Workload,
    request: &Request,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        client::run(ctx, workload, request, rec)
    }))
    .unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// One whole block of timed requests.
#[derive(Default)]
struct Block {
    traced: bool,
    start_ns: u64,
    end_ns: u64,
    sim_cycles: u64,
    latencies_ms: Vec<f64>,
}

/// Statistics of a set of whole blocks: the median across blocks of each
/// block's rate or latency percentile.  Each block holds the same mix, so
/// a spell of host slowdown shorter than half the run moves a few blocks,
/// not the median.  Percentiles pooled over the whole run moved with the
/// share of the run such a spell covered.
struct BlockStats {
    requests_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    sim_mcycles_per_s: f64,
}

impl BlockStats {
    fn of<'a>(blocks: impl Iterator<Item = &'a Block>) -> Self {
        let (mut rate, mut mcycles, mut p50, mut p90) = (vec![], vec![], vec![], vec![]);
        for block in blocks {
            let seconds = (block.end_ns - block.start_ns) as f64 / 1e9;
            rate.push(block.latencies_ms.len() as f64 / seconds);
            mcycles.push(block.sim_cycles as f64 / seconds / 1e6);
            let mut latencies = block.latencies_ms.clone();
            p50.push(quantile(&mut latencies, 0.5));
            p90.push(quantile(&mut latencies, 0.9));
        }
        BlockStats {
            requests_per_s: median(&rate),
            p50_ms: median(&p50),
            p90_ms: median(&p90),
            sim_mcycles_per_s: median(&mcycles),
        }
    }
}

/// Per-run accounting of the timed requests.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    blocks: Vec<Block>,
    /// Requests by `application:verdict`.
    kinds: BTreeMap<String, u64>,
    /// Digest of each list entry the first time it ran; a repeat must
    /// reproduce it.
    digests: Vec<Option<u64>>,
    errors: Vec<String>,
}

impl Tally {
    fn new(list_len: usize) -> Self {
        Tally {
            digests: vec![None; list_len],
            ..Tally::default()
        }
    }

    fn start_block(&mut self, traced: bool) {
        self.blocks.push(Block {
            traced,
            ..Block::default()
        });
    }

    /// Account one request of the current block, which ran from
    /// `start_ns` to `end_ns`.
    fn record(
        &mut self,
        index: usize,
        app: &str,
        (start_ns, end_ns): (u64, u64),
        result: Result<Outcome, String>,
    ) {
        self.attempted += 1;
        let block = self.blocks.last_mut().expect("a block was started");
        if block.latencies_ms.is_empty() {
            block.start_ns = start_ns;
        }
        block.end_ns = end_ns;
        block.latencies_ms.push((end_ns - start_ns) as f64 / 1e6);
        let outcome = result.and_then(|outcome| match self.digests[index] {
            Some(first) if first != outcome.digest => Err(format!(
                "list entry {index} is not deterministic: digest {:016x} then {:016x}",
                first, outcome.digest
            )),
            _ => Ok(outcome),
        });
        match outcome {
            Ok(outcome) => {
                self.digests[index] = Some(outcome.digest);
                block.sim_cycles += outcome.sim_cycles;
                *self
                    .kinds
                    .entry(format!("{app}:{}", outcome.verdict))
                    .or_insert(0) += 1;
            }
            Err(error) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("list entry {index}: {error}"));
                }
            }
        }
    }
}

/// glibc's default mmap threshold: blocks this large or larger are fresh
/// mappings, returned to the system when freed.
const MMAP_THRESHOLD: i32 = 128 << 10;
/// Free heap memory kept before trimming: more than a run ever frees.
const TRIM_THRESHOLD: i32 = 1 << 30;

/// Fix glibc's malloc thresholds; true when both took effect.
///
/// By default glibc raises both thresholds as large blocks are freed, and
/// trims the heap whenever enough free memory sits at its top.  Either
/// made a request's cost depend on the requests before it: two seeds with
/// the same mix differed by half in `design_sweep` p90 and by a tenth in
/// `long_trace` peak RSS.  With the mmap threshold at its default and no
/// trimming, a request's cost depends on the request alone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() -> bool {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` takes two integers and only updates allocator
    // parameters under the allocator's own lock; both values are within
    // glibc's documented ranges for a 64-bit target.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            && mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() -> bool {
    false
}

/// Bind the process to the CPU it is running on; that CPU's index when
/// it took effect.
///
/// With `threads = 1` the explorer still runs its search on one scoped
/// thread per call while the caller waits.  Unbound, the scheduler wakes
/// that thread on the other, idle CPU, and on a virtual machine the cost
/// of that wake-up follows the host's load: unbound blocks of the same
/// `design_sweep` requests took 0.13–0.34 s, bound ones 0.13–0.14 s.
/// Bound, the waiting caller hands its CPU straight to the worker.
/// Threads inherit the binding, so this runs before any is started.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    use std::os::raw::{c_int, c_ulong};
    /// glibc's `cpu_set_t`: a 1024-bit mask in `unsigned long` words.
    const WORD_BITS: usize = c_ulong::BITS as usize;
    const MASK_WORDS: usize = 1024 / WORD_BITS;
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU
    // the calling thread runs on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    if cpu >= MASK_WORDS * WORD_BITS {
        return None;
    }
    let mut mask = [0 as c_ulong; MASK_WORDS];
    mask[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
    // SAFETY: `mask` is a live, correctly sized `cpu_set_t` for the
    // duration of the call, and pid 0 names the calling process.
    let done = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (done == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // Counted before binding, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let malloc_pinned = pin_malloc_thresholds();
    let cpu = pin_to_current_cpu();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host {
        nproc,
        malloc_pinned,
        cpu,
    };
    match bench(&args, process_start, &host) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The host, and what the process fixed about it before measuring.
struct Host {
    /// CPUs available to the process before it was bound.
    nproc: usize,
    /// glibc's malloc thresholds were fixed.
    malloc_pinned: bool,
    /// The CPU the process is bound to.
    cpu: Option<usize>,
}

/// Run the benchmark; `Ok(false)` when a check failed.
fn bench(args: &Args, process_start: Instant, host: &Host) -> Result<bool, String> {
    let workload = args.workload;

    // Set up several times; the first set-up counts from process start.
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut state = None;
    for run in 0..SETUP_RUNS {
        let start = if run == 0 {
            process_start
        } else {
            Instant::now()
        };
        let fresh = setup(workload, args.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if state
            .as_ref()
            .is_some_and(|s: &Setup| s.digest != fresh.digest)
        {
            return Err("warm-up digest differs between set-ups".to_owned());
        }
        state = Some(fresh);
    }
    let state = state.expect("at least one set-up");
    let digest_ok = match COMMITTED_DIGESTS.iter().find(|(w, _)| *w == workload) {
        Some(&(_, expected)) if args.seed == COMMITTED_SEED => state.digest == expected,
        _ => true,
    };

    // The timed closed loop: one client, next request after the last one
    // completes, cycling through the list and stopping at the first block
    // boundary after the time is up.  A traced run traces every other
    // block, so traced and untraced requests run the same mix.
    let mut rec = Recorder::new(Instant::now());
    let list_len = state.requests.len();
    let block_len = workload.block_len();
    let mut tally = Tally::new(list_len);
    let mut traced_requests = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let ticks_before = report::cpu_ticks();
    let timed = Instant::now();
    let mut id = 0usize;
    // A traced run needs at least one traced and one untraced block.
    let min_blocks = if args.trace { 2 } else { 1 };
    while !id.is_multiple_of(block_len) || timed.elapsed() < budget || id < min_blocks * block_len {
        let index = id % list_len;
        let request = &state.requests[index];
        let traced = args.trace && (id / block_len) % 2 == 1;
        if id.is_multiple_of(block_len) {
            tally.start_block(traced);
        }
        rec.begin(id as u64, traced);
        let start_ns = rec.now_ns();
        let result = run_one(&state.ctx, workload, request, &mut rec);
        let end_ns = rec.now_ns();
        let app = state.ctx.apps[request.app].name;
        if traced {
            rec.request_span(start_ns, end_ns);
            let verdict = result.as_ref().map_or("failed", |o| o.verdict);
            traced_requests.push((id, app, request.to_string(), verdict));
        }
        tally.record(index, app, (start_ns, end_ns), result);
        id += 1;
    }
    let wall_s = timed.elapsed().as_secs_f64();
    // Steal is host contention the benchmark cannot control; the manifest
    // records it so a slow run can be told from a slow program.
    let steal_pct = report::steal_pct(ticks_before, report::cpu_ticks());

    let untraced = BlockStats::of(tally.blocks.iter().filter(|b| !b.traced));
    let metrics = if args.trace {
        let traced = BlockStats::of(tally.blocks.iter().filter(|b| b.traced));
        let (metrics, dominant) =
            report::layer_metrics(&rec.spans, &rec.counts, untraced.p50_ms, traced.p50_ms);
        println!("dominant layer: {dominant}");
        metrics
    } else {
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("requests_per_s", untraced.requests_per_s, "1/s"),
            Metric::new("request_ms_p50", untraced.p50_ms, "ms"),
            Metric::new("request_ms_p90", untraced.p90_ms, "ms"),
            Metric::new("sim_mcycles_per_s", untraced.sim_mcycles_per_s, "Mcycles/s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb()?, "MB"),
        ]
    };

    for error in &tally.errors {
        eprintln!("FAILED {error}");
    }
    if !digest_ok {
        eprintln!(
            "FAILED warm-up digest {:016x} differs from the committed one for seed {COMMITTED_SEED}",
            state.digest
        );
    }
    let correct = tally.failed == 0 && digest_ok;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    for metric in &metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "requests {} (failed {}, error_rate {error_rate}) in {wall_s:.3} s: {} blocks of {block_len}; \
         rates are medians over blocks; host CPU steal {steal_pct:.1}%",
        tally.attempted,
        tally.failed,
        tally.blocks.len()
    );

    let manifest = manifest(args, &state, &tally, host, steal_pct);
    println!("{manifest}");
    write_results(args, &manifest, &metrics, &rec, &traced_requests)?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}

/// What the numbers were measured with.
fn manifest(args: &Args, state: &Setup, tally: &Tally, host: &Host, steal_pct: f64) -> String {
    let kinds: Vec<String> = tally
        .kinds
        .iter()
        .map(|(kind, n)| format!("{}: {n}", json_string(kind)))
        .collect();
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rustc\": {}, \"profile\": {}, \"nproc\": {}, \"explorer_threads\": {EXPLORER_THREADS}, \
         \"malloc_thresholds_pinned\": {}, \"pinned_cpu\": {}, \"host_steal_pct\": {}, \"git_rev\": {}, \"warmup_digest\": \"{:016x}\", \"requests\": {{{}}}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
        host.nproc,
        host.malloc_pinned,
        host.cpu.map_or("null".to_owned(), |cpu| cpu.to_string()),
        report::json_number(steal_pct),
        json_string(&report::git_rev()),
        state.digest,
        kinds.join(", ")
    )
}

/// Write the manifest, the metrics and (traced runs) every traced
/// request with its spans to `perfbench/results/<workload>-trace<0|1>.json`.
fn write_results(
    args: &Args,
    manifest: &str,
    metrics: &[Metric],
    rec: &Recorder,
    traced_requests: &[(usize, &str, String, &str)],
) -> Result<(), String> {
    let requests: Vec<String> = traced_requests
        .iter()
        .map(|(id, app, request, verdict)| {
            format!(
                "[{id}, {}, {}, {}]",
                json_string(app),
                json_string(request),
                json_string(verdict)
            )
        })
        .collect();
    let spans: Vec<String> = rec
        .spans
        .iter()
        .map(|s| {
            format!(
                "[{}, {}, {}, {}]",
                s.request,
                json_string(s.layer.map_or("request", spans::Layer::name)),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    let body = format!(
        "{{\"run\": {manifest},\n\"metrics\": {},\n         \"requests_columns\": [\"request\", \"application\", \"tuple\", \"verdict\"],\n\"requests\": [{}],\n         \"spans_columns\": [\"request\", \"layer\", \"start_ns\", \"end_ns\"],\n\"spans\": [{}]}}\n",
        metrics_json(metrics),
        requests.join(",\n"),
        spans.join(",\n")
    );
    std::fs::create_dir_all(RESULTS_DIR)
        .map_err(|e| format!("cannot create {RESULTS_DIR}: {e}"))?;
    let path = format!(
        "{RESULTS_DIR}/{}-trace{}.json",
        args.workload.name(),
        u8::from(args.trace)
    );
    std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(digest: u64) -> Outcome {
        Outcome {
            sim_cycles: 10,
            digest,
            verdict: "mapped",
        }
    }

    #[test]
    fn a_failed_check_counts_as_a_failure() {
        let mut tally = Tally::new(2);
        tally.start_block(false);
        tally.record(0, "DDC", (0, 1_000_000), Ok(outcome(1)));
        tally.record(
            1,
            "DDC",
            (1_000_000, 3_000_000),
            Err("energy check failed".into()),
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        let block = &tally.blocks[0];
        assert_eq!(
            (block.start_ns, block.end_ns, block.sim_cycles),
            (0, 3_000_000, 10)
        );
        assert_eq!(block.latencies_ms, vec![1.0, 2.0]);
    }

    #[test]
    fn a_repeat_with_another_digest_counts_as_a_failure() {
        let mut tally = Tally::new(1);
        tally.start_block(false);
        tally.record(0, "DDC", (0, 1), Ok(outcome(1)));
        tally.record(0, "DDC", (1, 2), Ok(outcome(1)));
        tally.record(0, "DDC", (2, 3), Ok(outcome(2)));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(str::to_owned));
        let args = parse("--workload long_trace --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::LongTrace, 4, 2, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload long_trace").is_err());
        assert!(parse("--workload long_trace --seed 1 --trace 2").is_err());
    }
}
