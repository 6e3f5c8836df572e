//! Benchmark of the dynamic grid simulator and its batch schedulers.
//!
//! One process runs one workload from one seed and prints its metrics
//! as the last line of standard output, a flat JSON object that
//! `perfbench/run.py` checks and reshapes.
//!
//! A workload simulates `grids` independent grids per *round*; grid `i`
//! of a run with seed `n` is simulated from seed `n · grids + i`, so
//! the simulated metrics pool several grids' machine draws and job
//! streams.
//!
//! * `--trace 0` measures the end-to-end metrics: set-up time, host
//!   throughput of `Simulation::run`, the host latency of every
//!   `BatchScheduler::schedule` call, peak RSS, and the simulated
//!   response metrics. Rounds repeat while `--seconds` allow; the
//!   first is a warm-up and is not timed. On a shared host the core
//!   runs at a steady base speed most of the time, with faster bursts
//!   that come and go from one run to the next, so each grid's wall,
//!   each grid's set-up (the fastest of `SETUP_SAMPLES` consecutive
//!   ones) and each activation's latency is its slowest over the timed
//!   rounds: every run reaches the base speed, not every run gets a
//!   burst. `setup_s` is the median of those set-ups over the grids.
//!   Simulated metrics come from the first round (every round
//!   reproduces it bit for bit).
//! * `--trace 1` runs one untraced round and one round through a
//!   replica scheduler that makes the layer calls itself
//!   (`Problem::from_instance`, then `build_seeded` or `CmaConfig::run`)
//!   and records one span per call. The per-layer metrics come from
//!   those spans, the simulator's own counters and profiler phases,
//!   and a hold model of the public `EventQueue`.
//!
//! Every run checks job conservation on every grid and that all rounds
//! agree bit for bit on each grid's event digest, fault digest and
//! makespan; the traced run also checks that the replica reproduces
//! the untraced round exactly.

mod layers;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use cmags_core::Schedule;
use cmags_etc::GridInstance;
use cmags_gridsim::scheduler::BatchScheduler;
use cmags_gridsim::{SimReport, Simulation};

use layers::{LayerTrace, Replica};
use workload::{Size, Workload};

/// Set-ups timed before each grid's simulation; the last one is run.
const SETUP_SAMPLES: usize = 16;

/// A deliberate fault injected by the benchmark's own tests, to prove
/// that each correctness check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sabotage {
    /// Under-count completed jobs, breaking conservation.
    Conservation,
    /// Put every job on machine 0 in the traced replica, so it no
    /// longer reproduces the untraced run.
    Replica,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    sabotage: Option<Sabotage>,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut sabotage = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            size = Size::Quick;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--sabotage" => {
                sabotage = Some(match value.as_str() {
                    "conservation" => Sabotage::Conservation,
                    "replica" => Sabotage::Replica,
                    _ => return Err(format!("unknown sabotage {value}")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
        sabotage,
        spans_out,
    })
}

/// Times every `schedule` call of the scheduler it wraps and counts
/// the ETC cells handed to it.
struct Timed<'a> {
    inner: &'a mut dyn BatchScheduler,
    plan_s: &'a mut Vec<f64>,
    etc_cells: u64,
}

impl BatchScheduler for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let start = Instant::now();
        let schedule = self.inner.schedule(instance, seed);
        self.plan_s.push(start.elapsed().as_secs_f64());
        self.etc_cells += (instance.nb_jobs() * instance.nb_machines()) as u64;
        schedule
    }
}

/// One untraced simulation of every grid of the run.
struct Round {
    /// The fastest of `SETUP_SAMPLES` set-ups, per grid.
    setup_s: Vec<f64>,
    /// Wall time of `Simulation::run`, per grid.
    wall_s: Vec<f64>,
    /// Σ host latency of the `schedule` calls.
    plan_sum_s: f64,
    etc_cells: u64,
    /// One report per grid.
    reports: Vec<SimReport>,
}

impl Round {
    fn jobs_completed(&self) -> f64 {
        self.reports.iter().map(|r| r.jobs_completed).sum::<u64>() as f64
    }
}

/// The `q`-quantile of sorted `values` by nearest rank.
fn quantile_sorted(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// Config validation, `Simulation::try_new` and scheduler
/// construction: everything before the first event.
fn set_up(
    args: &Args,
    seed: u64,
) -> Result<(f64, Simulation, Box<dyn BatchScheduler>), cmags_gridsim::ConfigError> {
    let start = Instant::now();
    let sim = Simulation::try_new(args.workload.config(args.size), seed)?;
    let scheduler = args.workload.scheduler();
    Ok((start.elapsed().as_secs_f64(), sim, scheduler))
}

/// Simulates every grid once, untraced, timing `SETUP_SAMPLES`
/// set-ups before each; `plan_s` receives the host latency of every
/// `schedule` call, in order.
fn run_round(args: &Args, seeds: &[u64], plan_s: &mut Vec<f64>) -> Result<Round, String> {
    plan_s.clear();
    let mut setup_s = Vec::with_capacity(seeds.len());
    let mut wall_s = Vec::with_capacity(seeds.len());
    let mut etc_cells = 0;
    let mut reports = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut fastest = f64::INFINITY;
        for _ in 1..SETUP_SAMPLES {
            let (elapsed, sim, scheduler) = set_up(args, seed).map_err(|e| e.to_string())?;
            fastest = fastest.min(elapsed);
            black_box((sim, scheduler));
        }
        let (elapsed, sim, mut scheduler) = set_up(args, seed).map_err(|e| e.to_string())?;
        setup_s.push(fastest.min(elapsed));
        let mut timed = Timed {
            inner: scheduler.as_mut(),
            plan_s,
            etc_cells: 0,
        };
        let start = Instant::now();
        let mut report = sim.run(&mut timed);
        wall_s.push(start.elapsed().as_secs_f64());
        etc_cells += timed.etc_cells;
        if args.sabotage == Some(Sabotage::Conservation) {
            report.jobs_completed -= 1;
        }
        reports.push(report);
    }
    Ok(Round {
        setup_s,
        wall_s,
        plan_sum_s: plan_s.iter().sum(),
        etc_cells,
        reports,
    })
}

/// Raises each entry of `slowest` to the matching entry of `sample`.
fn keep_slowest(slowest: &mut Vec<f64>, sample: &[f64]) {
    if slowest.is_empty() {
        slowest.extend_from_slice(sample);
    } else {
        for (w, &s) in slowest.iter_mut().zip(sample) {
            *w = w.max(s);
        }
    }
}

/// The bits two simulations of one grid must agree on.
fn fingerprint(report: &SimReport) -> (u64, u64, u64) {
    (
        report.event_digest,
        report.fault_digest,
        report.realized_makespan.to_bits(),
    )
}

/// Checks every grid of `reports` for job conservation and against the
/// same grid of `first`, recording each failure in `errors`.
fn check(what: &str, reports: &[SimReport], first: &[SimReport], errors: &mut Vec<String>) {
    for (grid, (r, f)) in reports.iter().zip(first).enumerate() {
        if r.jobs_completed + r.jobs_dropped != r.jobs_submitted {
            errors.push(format!(
                "{what} grid {grid}: completed {} + dropped {} != submitted {}",
                r.jobs_completed, r.jobs_dropped, r.jobs_submitted
            ));
        }
        if fingerprint(r) != fingerprint(f) {
            errors.push(format!(
                "{what} grid {grid} diverged: {:x?} vs {:x?}",
                fingerprint(r),
                fingerprint(f)
            ));
        }
    }
}

/// FNV-1a fold of one digest per grid into the run's digest.
fn fold_digests(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics of one run, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let grids = args.workload.grids(args.size);
    let seeds: Vec<u64> = (0..grids)
        .map(|i| args.seed.wrapping_mul(grids).wrapping_add(i))
        .collect();
    let mut errors = Vec::new();
    let mut plan_s = Vec::new();
    // The slowest set-up and wall of each grid, and the slowest latency
    // of each activation, over the timed rounds.
    let mut slowest_setup_s = Vec::new();
    let mut slowest_wall_s = Vec::new();
    let mut slowest_plan_s = Vec::new();
    // Later rounds are checked against the first and then dropped, so
    // memory does not grow with the number of rounds.
    let mut base: Option<Round> = None;
    let mut round_jobs_per_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let budget = Instant::now();
    loop {
        let round = run_round(args, &seeds, &mut plan_s)?;
        check(
            "round",
            &round.reports,
            &base.as_ref().unwrap_or(&round).reports,
            &mut errors,
        );
        if base.is_some() {
            keep_slowest(&mut slowest_setup_s, &round.setup_s);
            keep_slowest(&mut slowest_wall_s, &round.wall_s);
            keep_slowest(&mut slowest_plan_s, &plan_s);
        }
        round_jobs_per_s.push(round.jobs_completed() / round.wall_s.iter().sum::<f64>());
        attempted += round.reports.iter().map(|r| r.jobs_submitted).sum::<u64>();
        failed += round.reports.iter().map(|r| r.jobs_dropped).sum::<u64>();
        base.get_or_insert(round);
        // The traced run makes exactly one untraced round; otherwise one
        // timed round follows the warm-up, and more start only if they
        // should end within the budget.
        let rounds = round_jobs_per_s.len() as f64;
        if args.trace
            || (rounds >= 2.0
                && budget.elapsed().as_secs_f64() * (rounds + 1.0) / rounds > args.seconds)
        {
            break;
        }
    }
    let base = base.expect("at least one round ran");
    let reports = &base.reports;
    let total = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();

    let mut metrics = Metrics::default();
    if args.trace {
        let mut replica = Replica::new(args.workload, args.sabotage == Some(Sabotage::Replica));
        let mut traced = Vec::with_capacity(seeds.len());
        let mut traced_wall_s = 0.0;
        for (grid, &seed) in seeds.iter().enumerate() {
            let (_, sim, _) = set_up(args, seed).map_err(|e| e.to_string())?;
            replica.start_grid(grid as u32);
            let start = Instant::now();
            traced.push(sim.with_profiling().run(&mut replica));
            traced_wall_s += start.elapsed().as_secs_f64();
        }
        check("traced replica", &traced, reports, &mut errors);
        let trace = LayerTrace {
            untraced: reports,
            untraced_wall_s: base.wall_s.iter().sum(),
            untraced_plan_s: base.plan_sum_s,
            etc_cells: base.etc_cells,
            traced: &traced,
            traced_wall_s,
            queue: args.workload.config(args.size).queue,
            replica: &replica,
        };
        trace.metrics(&mut metrics);
        for line in trace.summary(args.workload) {
            println!("{line}");
        }
        if let Some(path) = &args.spans_out {
            replica
                .write_spans(path)
                .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
            println!("spans written to {}", path.display());
        }
    } else {
        let jobs_per_s = base.jobs_completed() / slowest_wall_s.iter().sum::<f64>();
        slowest_plan_s.sort_by(f64::total_cmp);
        let plan_p50 = quantile_sorted(&slowest_plan_s, 0.5);
        let plan_p90 = quantile_sorted(&slowest_plan_s, 0.9);
        let mut response = cmags_core::telemetry::TickHistogram::new();
        for r in reports {
            response.merge(&r.telemetry.response);
        }
        let completed = total(|r| r.jobs_completed) as f64;
        let response_sum: f64 = reports.iter().map(|r| r.total_response).sum();
        let p95_ticks = response.quantile(0.95).unwrap_or(0);
        metrics.put("setup_s", median(&mut slowest_setup_s), "s");
        metrics.put("jobs_per_s", jobs_per_s, "1/s");
        metrics.put("plan_p50_ms", plan_p50 * 1e3, "ms");
        metrics.put("plan_p90_ms", plan_p90 * 1e3, "ms");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        metrics.put("response_mean_s", response_sum / completed, "s");
        metrics.put(
            "response_p95_s",
            cmags_gridsim::ticks_to_time(p95_ticks as i64),
            "s",
        );
        metrics.put(
            "completed_ratio",
            completed / total(|r| r.jobs_submitted) as f64,
            "ratio",
        );
        println!(
            "{}: {} rounds of {} grids; per round {} jobs, {} activations, {} events",
            args.workload.name(),
            round_jobs_per_s.len(),
            grids,
            total(|r| r.jobs_submitted),
            total(|r| r.activations),
            total(|r| r.events_processed),
        );
        let per_round: Vec<String> = round_jobs_per_s.iter().map(|v| format!("{v:.1}")).collect();
        println!("jobs_per_s by round: {}", per_round.join(" "));
    }

    let metric_json: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_f64(*value),
                json_str(unit)
            )
        })
        .collect();
    let error_json: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"rounds\": {}, \"grids\": {grids}, \
         \"event_digest\": \"{:#018x}\", \"fault_digest\": \"{:#018x}\", \
         \"attempted\": {attempted}, \"failed\": {failed}, \"errors\": [{}], \"metrics\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        round_jobs_per_s.len(),
        fold_digests(reports.iter().map(|r| r.event_digest)),
        fold_digests(reports.iter().map(|r| r.fault_digest)),
        error_json.join(", "),
        metric_json.join(", ")
    );
    Ok(())
}
