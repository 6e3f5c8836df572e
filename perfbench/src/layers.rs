//! The traced run: a replica scheduler that makes the layer calls
//! itself and records one span per call, and the per-layer metrics
//! derived from those spans and the simulator's reports.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use cmags_cma::{CmaConfig, StopCondition};
use cmags_core::telemetry::Phase;
use cmags_core::{EvalState, Objective, Problem, Schedule};
use cmags_etc::GridInstance;
use cmags_gridsim::event::{Event, EventQueue};
use cmags_gridsim::scheduler::BatchScheduler;
use cmags_gridsim::{QueueKind, SimReport};
use cmags_heuristics::constructive::ConstructiveKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workload::Workload;

/// Moves peeked and applied per `cma_paper` activation by the
/// evaluator probe.
const EVAL_MOVES: usize = 1024;

/// Hold-model operations timed per block, and blocks per measurement.
const HOLD_OPS: usize = 200_000;
const HOLD_BLOCKS: usize = 5;

/// A layer boundary the replica records a span at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The whole `schedule` replica: problem build, plan and drop.
    Schedule,
    /// `Problem::from_instance` (and the cMA's objective retarget).
    ProblemBuild,
    /// Dropping the activation's `Problem`, which frees its ETC copies.
    ProblemDrop,
    /// `ConstructiveKind::Mct.build_seeded`.
    MctPlan,
    /// `CmaConfig::run`.
    CmaRun,
    /// The cMA scheduler's seeding heuristic on a batch too small for
    /// the grid population.
    CmaSeeding,
    /// The evaluator probe; runs after the `schedule` span, outside it.
    EvalProbe,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Self::Schedule => "schedule",
            Self::ProblemBuild => "problem.build",
            Self::ProblemDrop => "problem.drop",
            Self::MctPlan => "mct.plan",
            Self::CmaRun => "cma.run",
            Self::CmaSeeding => "cma.seeding",
            Self::EvalProbe => "eval.probe",
        }
    }

    /// The span that caused this one, within the same activation.
    fn parent(self) -> &'static str {
        match self {
            Self::Schedule | Self::EvalProbe => "activation",
            _ => "schedule",
        }
    }
}

struct Span {
    layer: Layer,
    grid: u32,
    activation: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Plans exactly as the workload's scheduler does, through the layer
/// calls themselves, recording one span per call. The traced run checks
/// that it reproduces the untraced run bit for bit.
pub struct Replica {
    workload: Workload,
    cma: CmaConfig,
    /// Puts every job on machine 0 instead, to prove that the
    /// reproduction check fires.
    sabotage: bool,
    origin: Instant,
    /// The grid being simulated.
    grid: u32,
    /// Activation index within the grid.
    activation: u32,
    spans: Vec<Span>,
    children: u64,
    accepted: u64,
    ls_improvements: u64,
    peek_s: f64,
    apply_s: f64,
    probe_moves: u64,
}

impl Replica {
    pub fn new(workload: Workload, sabotage: bool) -> Self {
        Self {
            workload,
            // `CmaScheduler::default()`: Table 1 with a 2000-children budget.
            cma: CmaConfig::paper().with_stop(StopCondition::children(2000)),
            sabotage,
            origin: Instant::now(),
            grid: 0,
            activation: 0,
            spans: Vec::new(),
            children: 0,
            accepted: 0,
            ls_improvements: 0,
            peek_s: 0.0,
            apply_s: 0.0,
            probe_moves: 0,
        }
    }

    /// Starts the spans of the next grid's simulation.
    pub fn start_grid(&mut self, grid: u32) {
        self.grid = grid;
        self.activation = 0;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn span(&mut self, layer: Layer, start: Instant, end: Instant) {
        self.spans.push(Span {
            layer,
            grid: self.grid,
            activation: self.activation,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn seconds(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::seconds)
            .collect()
    }

    fn total_s(&self, layer: Layer) -> f64 {
        self.seconds(layer).iter().sum()
    }

    /// Times `EVAL_MOVES` peeks, then as many applies, of seeded random
    /// single-job moves on the activation's problem and plan. Runs after
    /// the `schedule` span closes, on a problem of its own.
    fn eval_probe(&mut self, instance: &GridInstance, plan: &Schedule, seed: u64) {
        let problem = &Problem::from_instance(instance).targeting(Objective::classic());
        let (jobs, machines) = (problem.nb_jobs() as u64, problem.nb_machines() as u64);
        let mut state = seed | 1;
        let moves: Vec<(u32, u64)> = (0..EVAL_MOVES)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % jobs) as u32, 1 + (state >> 32) % (machines - 1))
            })
            .collect();
        // A move always leaves the job's current machine.
        let target = |schedule: &Schedule, job: u32, shift: u64| {
            ((u64::from(schedule.machine_of(job)) + shift) % machines) as u32
        };
        let mut schedule = plan.clone();
        let mut eval = EvalState::new(problem, &schedule);
        let start = Instant::now();
        for &(job, shift) in &moves {
            let to = target(&schedule, job, shift);
            black_box(eval.peek_move(problem, &schedule, job, to));
        }
        let peeked = Instant::now();
        for &(job, shift) in &moves {
            let to = target(&schedule, job, shift);
            eval.apply_move(problem, &mut schedule, job, to);
        }
        black_box(eval.objectives());
        let end = Instant::now();
        self.peek_s += (peeked - start).as_secs_f64();
        self.apply_s += (end - peeked).as_secs_f64();
        self.probe_moves += EVAL_MOVES as u64;
        self.span(Layer::EvalProbe, start, end);
    }

    /// Writes every span as one CSV row.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer,parent,grid,activation,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.layer.name(),
                s.layer.parent(),
                s.grid,
                s.activation,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl BatchScheduler for Replica {
    fn name(&self) -> String {
        format!("{}-replica", self.workload.name())
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let start = Instant::now();
        let cma = self.workload == Workload::CmaPaper;
        let problem = if cma {
            Problem::from_instance(instance).targeting(Objective::classic())
        } else {
            Problem::from_instance(instance)
        };
        let built = Instant::now();
        self.span(Layer::ProblemBuild, start, built);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (plan_layer, schedule) = if !cma {
            (
                Layer::MctPlan,
                ConstructiveKind::Mct.build_seeded(&problem, &mut rng),
            )
        } else if instance.nb_jobs() < 2 || instance.nb_machines() < 2 {
            (
                Layer::CmaSeeding,
                self.cma.seeding.build_seeded(&problem, &mut rng),
            )
        } else {
            let outcome = self.cma.run(&problem, seed);
            self.children += outcome.children;
            self.accepted += outcome.accepted;
            self.ls_improvements += outcome.ls_improvements;
            (Layer::CmaRun, outcome.schedule)
        };
        let planned = Instant::now();
        self.span(plan_layer, built, planned);
        drop(problem);
        let end = Instant::now();
        self.span(Layer::ProblemDrop, planned, end);
        self.span(Layer::Schedule, start, end);
        if plan_layer == Layer::CmaRun {
            self.eval_probe(instance, &schedule, seed);
        }
        self.activation += 1;
        if self.sabotage {
            return Schedule::uniform(instance.nb_jobs(), 0);
        }
        schedule
    }
}

/// One hold-model operation: pop the due event and schedule it again a
/// pseudo-random gap in `[1, 2·mean_gap]` ticks later, so the queue
/// size stays constant.
fn hold(queue: &mut EventQueue, state: &mut u64, mean_gap: u64) {
    let (t, event) = queue.pop().expect("the hold model never empties");
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    queue.push(t + 1 + (*state % (2 * mean_gap)) as i64, event);
}

/// ns per hold operation of the run's event-queue backend at `depth`
/// live events and the run's mean gap between events (median of
/// `HOLD_BLOCKS` timed blocks after one warm-up block).
fn hold_ns(kind: QueueKind, depth: usize, mean_gap: u64) -> f64 {
    let mut queue = EventQueue::with_kind(kind);
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut t = 0i64;
    for job in 0..depth as u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        t += 1 + (state % (2 * mean_gap)) as i64;
        queue.push(t, Event::JobArrival { job });
    }
    for _ in 0..HOLD_OPS {
        hold(&mut queue, &mut state, mean_gap);
    }
    let mut blocks: Vec<f64> = (0..HOLD_BLOCKS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..HOLD_OPS {
                hold(&mut queue, &mut state, mean_gap);
            }
            start.elapsed().as_secs_f64() * 1e9 / HOLD_OPS as f64
        })
        .collect();
    crate::median(&mut blocks)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are derived from.
pub struct LayerTrace<'a> {
    /// One report per grid of the untraced round.
    pub untraced: &'a [SimReport],
    pub untraced_wall_s: f64,
    /// Σ of the untraced run's timed `schedule` calls.
    pub untraced_plan_s: f64,
    /// Σ `nb_jobs · nb_machines` handed to the untraced scheduler.
    pub etc_cells: u64,
    /// One report per grid of the traced round.
    pub traced: &'a [SimReport],
    pub traced_wall_s: f64,
    /// The run's event-queue backend, for the hold model.
    pub queue: QueueKind,
    pub replica: &'a Replica,
}

/// Σ of `f` over the grids' reports.
fn sum(reports: &[SimReport], f: impl Fn(&SimReport) -> u64) -> f64 {
    reports.iter().map(f).sum::<u64>() as f64
}

/// Σ of one profiler phase over the grids' reports.
fn phase_s(reports: &[SimReport], phase: Phase) -> f64 {
    reports
        .iter()
        .map(|r| r.telemetry.phases.wall_s(phase))
        .sum()
}

impl LayerTrace<'_> {
    /// Simulator time outside the scheduler, from the untraced run.
    fn sim_self_s(&self) -> f64 {
        self.untraced_wall_s - self.untraced_plan_s
    }

    /// Share of the replica's `schedule` time spent in `layer`.
    fn plan_share(&self, layer: Layer) -> f64 {
        ratio(
            self.replica.total_s(layer),
            self.replica.total_s(Layer::Schedule),
        )
    }

    /// The profiler's `scheduler` phase over the replica's wall time
    /// inside the scheduler (its `schedule` spans plus the evaluator
    /// probe, which runs inside the same call), minus one.
    fn profiler_gap(&self) -> f64 {
        let inside = self.replica.total_s(Layer::Schedule) + self.replica.total_s(Layer::EvalProbe);
        ratio(phase_s(self.traced, Phase::Scheduler), inside) - 1.0
    }

    pub fn metrics(&self, m: &mut crate::Metrics) {
        let (r, t) = (self.untraced, self.traced);
        let replica = self.replica;
        let sim_self_s = self.sim_self_s();
        let events = sum(r, |r| r.events_processed);
        let activations = sum(r, |r| r.activations);
        let dispatches = sum(r, |r| r.telemetry.dispatches);
        let failures = sum(r, |r| r.job_failures);
        m.put("sim.self_s", sim_self_s, "s");
        m.put(
            "sim.self_ns_per_event",
            ratio(sim_self_s * 1e9, events),
            "ns",
        );
        m.put(
            "sim.self_share",
            ratio(sim_self_s, self.untraced_wall_s),
            "ratio",
        );
        m.put("sim.events", events, "count");
        m.put("sim.activations", activations, "count");
        m.put("sim.dispatches", dispatches, "count");
        m.put(
            "sim.etc_cells_per_activation",
            ratio(self.etc_cells as f64, activations),
            "count",
        );
        m.put(
            "sim.snapshot_share",
            ratio(phase_s(t, Phase::SnapshotBuild), self.traced_wall_s),
            "ratio",
        );
        m.put("sim.profiler_gap_ratio", self.profiler_gap(), "ratio");

        let depth = t
            .iter()
            .map(|r| r.telemetry.queue_depth.high_water())
            .max()
            .unwrap_or(0);
        let makespan_ticks: i64 = t
            .iter()
            .map(|r| cmags_gridsim::time_to_ticks(r.realized_makespan))
            .sum();
        let mean_gap = (makespan_ticks.max(1) as f64 / events.max(1.0)).max(1.0) as u64;
        m.put(
            "event.hold_ns",
            hold_ns(self.queue, depth.max(1) as usize, mean_gap),
            "ns",
        );
        m.put("event.queue_depth_max", depth as f64, "count");

        m.put("fault.job_failures", failures, "count");
        m.put(
            "fault.machine_crashes",
            sum(r, |r| r.machine_crashes),
            "count",
        );
        m.put(
            "fault.retries",
            sum(r, |r| r.telemetry.retries_scheduled),
            "count",
        );
        m.put("fault.failure_ratio", ratio(failures, dispatches), "ratio");

        let p50_ms = |layer| crate::median(&mut replica.seconds(layer)) * 1e3;
        m.put("problem.build_ms_p50", p50_ms(Layer::ProblemBuild), "ms");
        m.put(
            "problem.build_share",
            self.plan_share(Layer::ProblemBuild),
            "ratio",
        );
        m.put("problem.drop_ms_p50", p50_ms(Layer::ProblemDrop), "ms");
        m.put("mct.plan_ms_p50", p50_ms(Layer::MctPlan), "ms");
        m.put("cma.run_ms_p50", p50_ms(Layer::CmaRun), "ms");
        m.put(
            "cma.children_per_s",
            ratio(replica.children as f64, replica.total_s(Layer::CmaRun)),
            "1/s",
        );
        m.put(
            "cma.accept_ratio",
            ratio(replica.accepted as f64, replica.children as f64),
            "ratio",
        );
        m.put(
            "cma.ls_improve_ratio",
            ratio(replica.ls_improvements as f64, replica.children as f64),
            "ratio",
        );
        let moves = replica.probe_moves as f64;
        m.put(
            "eval.peek_move_ns",
            ratio(replica.peek_s * 1e9, moves),
            "ns",
        );
        m.put(
            "eval.apply_move_ns",
            ratio(replica.apply_s * 1e9, moves),
            "ns",
        );
        m.put(
            "trace.overhead_ratio",
            ratio(self.traced_wall_s, self.untraced_wall_s),
            "ratio",
        );
    }

    /// Human-readable lines: the attribution cross-check and whether
    /// the workload still shows the dominance it was chosen for.
    pub fn summary(&self, workload: Workload) -> Vec<String> {
        let wall = self.untraced_wall_s;
        let self_share = ratio(self.sim_self_s(), wall);
        let build_share = self.plan_share(Layer::ProblemBuild);
        let (what, share, need) = match workload {
            Workload::CmaPaper => (
                "cma.run share of plan",
                self.plan_share(Layer::CmaRun),
                0.95,
            ),
            Workload::MctWide => (
                "(problem.build + sim.self) share of wall",
                ratio(build_share * self.untraced_plan_s + self.sim_self_s(), wall),
                0.5,
            ),
            Workload::FaultStorm => ("sim.self share of wall", self_share, 0.5),
        };
        let ok = |met: bool| if met { "ok" } else { "NOT MET" };
        let mut lines = vec![
            format!(
                "attribution: profiler scheduler phase vs schedule spans gap {:+.4}; \
                 problem.build is {:.1}% of schedule time",
                self.profiler_gap(),
                100.0 * build_share
            ),
            format!(
                "dominance {}: {what} = {:.2}% (need >= {:.0}%): {}",
                workload.name(),
                100.0 * share,
                100.0 * need,
                ok(share >= need)
            ),
        ];
        if workload == Workload::CmaPaper {
            lines.push(format!(
                "dominance cma_paper: sim.self share of wall = {:.3}% (need < 1%): {}",
                100.0 * self_share,
                ok(self_share < 0.01)
            ));
        }
        lines
    }
}
