//! The scheduler-facing view of an ETC instance.

use std::sync::OnceLock;

use cmags_etc::GridInstance;

use crate::{ticks, FitnessWeights, JobId, MachineId, Objective, Objectives};

/// An evaluation-optimised view of a scheduling instance.
///
/// Owns a row-major copy of the ETC matrix plus the machine ready times and
/// the fitness weights (Eq. 3). The exact delta evaluator reads a parallel
/// **fixed-point tick** copy of both (see [`crate::ticks`]); that copy is
/// built lazily, on the first evaluator read, so row-at-a-time heuristics
/// (MCT, Min-Min, …) that only scan the f64 rows never pay for it.
/// [`Problem::refill`] reloads a problem from a new instance in place,
/// keeping every buffer's capacity, so a scheduler re-planning each
/// activation of a dynamic grid stays allocation-steady. `Problem` is cheap
/// to share by reference across threads (`Send + Sync`; the tick cache is a
/// [`OnceLock`], initialised at most once); all algorithms in the workspace
/// take `&Problem`.
#[derive(Debug, Clone)]
pub struct Problem {
    name: String,
    nb_jobs: usize,
    nb_machines: usize,
    /// Row-major: `etc[job * nb_machines + machine]`.
    etc: Vec<f64>,
    ready: Vec<f64>,
    /// Tick copy of `etc`/`ready`, quantised on first evaluator access so
    /// every evaluation path reads identical integer inputs.
    ticks: OnceLock<TickCopy>,
    weights: FitnessWeights,
    /// Response-blend objective layered over `weights`
    /// ([`Objective::classic`] = the historical behaviour, bit for bit).
    objective: Objective,
}

/// The evaluator's fixed-point copy of a problem's ETC and ready times.
///
/// Evaluator loops fetch it once through [`Problem::ticks`] and index it
/// directly, so the cache's initialisation check is not repeated per cell.
#[derive(Debug, Clone, Default)]
pub(crate) struct TickCopy {
    nb_machines: usize,
    /// Row-major, like [`Problem::etc`].
    etc: Vec<i64>,
    ready: Vec<i64>,
}

impl TickCopy {
    /// ETC of `job` on `machine`.
    #[inline]
    pub(crate) fn etc(&self, job: JobId, machine: MachineId) -> i64 {
        debug_assert!((machine as usize) < self.nb_machines);
        self.etc[job as usize * self.nb_machines + machine as usize]
    }

    /// The ETC row of one job — contiguous, for batched scoring.
    #[inline]
    pub(crate) fn etc_row(&self, job: JobId) -> &[i64] {
        let start = job as usize * self.nb_machines;
        &self.etc[start..start + self.nb_machines]
    }

    /// Ready time of `machine`.
    #[inline]
    pub(crate) fn ready(&self, machine: MachineId) -> i64 {
        self.ready[machine as usize]
    }

    /// Quantises `etc`/`ready` into the existing buffers.
    fn fill(&mut self, nb_machines: usize, etc: &[f64], ready: &[f64]) {
        self.nb_machines = nb_machines;
        self.etc.clear();
        self.etc.extend(etc.iter().map(|&e| ticks::ticks(e)));
        self.ready.clear();
        self.ready.extend(ready.iter().map(|&r| ticks::ticks(r)));
    }
}

/// Equality of the instance data, weights and objective. The tick copy
/// is a pure function of the data, so whether it has been built yet
/// does not matter.
impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nb_jobs == other.nb_jobs
            && self.nb_machines == other.nb_machines
            && self.etc == other.etc
            && self.ready == other.ready
            && self.weights == other.weights
            && self.objective == other.objective
    }
}

impl Default for Problem {
    /// An empty (0 × 0) problem with the paper's λ = 0.75 and the classic
    /// objective: the starting buffer for [`Problem::refill`].
    fn default() -> Self {
        Self {
            name: String::new(),
            nb_jobs: 0,
            nb_machines: 0,
            etc: Vec::new(),
            ready: Vec::new(),
            ticks: OnceLock::new(),
            weights: FitnessWeights::default(),
            objective: Objective::classic(),
        }
    }
}

impl Problem {
    /// Builds a problem from an instance with the paper's λ = 0.75.
    #[must_use]
    pub fn from_instance(instance: &GridInstance) -> Self {
        Self::with_weights(instance, FitnessWeights::default())
    }

    /// Builds a problem with explicit fitness weights.
    #[must_use]
    pub fn with_weights(instance: &GridInstance, weights: FitnessWeights) -> Self {
        let mut problem = Self {
            weights,
            ..Self::default()
        };
        problem.refill(instance);
        problem
    }

    /// Reloads this problem from `instance` in place, keeping the
    /// capacity of every buffer; the weights and objective are kept.
    ///
    /// The result equals [`Problem::with_weights`] on the same instance
    /// and weights. The tick copy is rebuilt only if it had already been
    /// built, so a problem reused by an evaluator-driven scheduler stays
    /// warm and one reused by a constructive heuristic never builds it.
    pub fn refill(&mut self, instance: &GridInstance) {
        self.name.clear();
        self.name.push_str(instance.name());
        self.nb_jobs = instance.nb_jobs();
        self.nb_machines = instance.nb_machines();
        self.etc.clear();
        self.etc.extend_from_slice(instance.etc().as_slice());
        self.ready.clear();
        self.ready.extend_from_slice(instance.ready_times());
        if let Some(ticks) = self.ticks.get_mut() {
            ticks.fill(self.nb_machines, &self.etc, &self.ready);
        }
    }

    /// The evaluator's tick copy, built on first access.
    #[inline]
    pub(crate) fn ticks(&self) -> &TickCopy {
        self.ticks.get_or_init(|| {
            let mut ticks = TickCopy::default();
            ticks.fill(self.nb_machines, &self.etc, &self.ready);
            ticks
        })
    }

    /// Instance name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of jobs.
    #[inline]
    #[must_use]
    pub fn nb_jobs(&self) -> usize {
        self.nb_jobs
    }

    /// Number of machines.
    #[inline]
    #[must_use]
    pub fn nb_machines(&self) -> usize {
        self.nb_machines
    }

    /// Expected time to compute `job` on `machine`.
    #[inline]
    #[must_use]
    pub fn etc(&self, job: JobId, machine: MachineId) -> f64 {
        debug_assert!((job as usize) < self.nb_jobs && (machine as usize) < self.nb_machines);
        self.etc[job as usize * self.nb_machines + machine as usize]
    }

    /// The ETC row of one job — contiguous, for scanning candidate
    /// machines.
    #[inline]
    #[must_use]
    pub fn etc_row(&self, job: JobId) -> &[f64] {
        let start = job as usize * self.nb_machines;
        &self.etc[start..start + self.nb_machines]
    }

    /// Ready time of `machine`.
    #[inline]
    #[must_use]
    pub fn ready(&self, machine: MachineId) -> f64 {
        self.ready[machine as usize]
    }

    /// All ready times.
    #[must_use]
    pub fn ready_times(&self) -> &[f64] {
        &self.ready
    }

    /// The fitness weights in effect.
    #[must_use]
    pub fn weights(&self) -> FitnessWeights {
        self.weights
    }

    /// The response-blend objective in effect
    /// ([`Objective::classic`] unless retargeted).
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// A copy of this problem targeting a different response-blend
    /// objective (λ).
    ///
    /// Like [`Problem::reweighted`], only the scalarisation changes: the
    /// raw objectives, schedules and every [`crate::EvalState`] cache
    /// computed against `self` stay valid. `Objective::classic()`
    /// reproduces the historical fitness bit for bit.
    ///
    /// Such copies exist to feed the evaluator, so the tick copy is built
    /// on `self` first and cloned with it: a ladder of copies shares one
    /// quantisation.
    #[must_use]
    pub fn retargeted(&self, objective: Objective) -> Self {
        let _ = self.ticks();
        self.clone().targeting(objective)
    }

    /// The consuming variant of [`Problem::retargeted`] — no copy of the
    /// ETC/tick data, for freshly built per-activation problems.
    #[must_use]
    pub fn targeting(mut self, objective: Objective) -> Self {
        self.retarget(objective);
        self
    }

    /// The in-place variant of [`Problem::retargeted`], for problems
    /// reused across [`Problem::refill`]s.
    pub fn retarget(&mut self, objective: Objective) {
        self.objective = objective;
    }

    /// A copy of this problem with different fitness weights.
    ///
    /// Objectives are weight-independent, so any algorithm state computed
    /// against `self` (schedules, [`crate::EvalState`] caches) remains
    /// valid for the reweighted problem; only scalarised fitness values
    /// change. Multi-objective engines use this to scalarise local-search
    /// probes under varying λ without re-reading the instance. As with
    /// [`Problem::retargeted`], the tick copy is built on `self` first so
    /// every copy shares one quantisation.
    #[must_use]
    pub fn reweighted(&self, weights: FitnessWeights) -> Self {
        let _ = self.ticks();
        Self {
            weights,
            ..self.clone()
        }
    }

    /// Scalarised fitness of a pair of objective values: the classic
    /// Eq.-3 weighting blended by the active response objective λ
    /// (identical to the pure Eq.-3 value when the objective is
    /// classic).
    #[inline]
    #[must_use]
    pub fn fitness(&self, objectives: Objectives) -> f64 {
        self.objective
            .fitness(self.weights, objectives, self.nb_machines)
    }

    /// Mean ETC of a job across machines (workload proxy).
    #[must_use]
    pub fn job_mean_etc(&self, job: JobId) -> f64 {
        let row = self.etc_row(job);
        row.iter().sum::<f64>() / row.len() as f64
    }

    /// Jobs sorted ascending by mean ETC (shortest first). Deterministic:
    /// ties break by job id.
    #[must_use]
    pub fn jobs_by_workload(&self) -> Vec<JobId> {
        let means: Vec<f64> = (0..self.nb_jobs as JobId)
            .map(|j| self.job_mean_etc(j))
            .collect();
        let mut order: Vec<JobId> = (0..self.nb_jobs as JobId).collect();
        order.sort_by(|&a, &b| {
            means[a as usize]
                .total_cmp(&means[b as usize])
                .then(a.cmp(&b))
        });
        order
    }

    /// Machines sorted ascending by mean ETC over all jobs (fastest
    /// first). Deterministic: ties break by machine id.
    #[must_use]
    pub fn machines_by_speed(&self) -> Vec<MachineId> {
        let mut means = vec![0.0f64; self.nb_machines];
        for job in 0..self.nb_jobs {
            let row = &self.etc[job * self.nb_machines..(job + 1) * self.nb_machines];
            for (m, &e) in row.iter().enumerate() {
                means[m] += e;
            }
        }
        let mut order: Vec<MachineId> = (0..self.nb_machines as MachineId).collect();
        order.sort_by(|&a, &b| {
            means[a as usize]
                .total_cmp(&means[b as usize])
                .then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::EtcMatrix;

    fn instance() -> GridInstance {
        // 3 jobs x 2 machines; machine 0 uniformly faster.
        let etc = EtcMatrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 6.0, 5.0, 10.0]);
        GridInstance::with_ready_times("p", etc, vec![0.5, 0.0])
    }

    fn problem() -> Problem {
        Problem::from_instance(&instance())
    }

    #[test]
    fn accessors() {
        let p = problem();
        assert_eq!(p.name(), "p");
        assert_eq!(p.nb_jobs(), 3);
        assert_eq!(p.nb_machines(), 2);
        assert_eq!(p.etc(1, 1), 6.0);
        assert_eq!(p.etc_row(2), &[5.0, 10.0]);
        assert_eq!(p.ready(0), 0.5);
        assert_eq!(p.ready_times(), &[0.5, 0.0]);
    }

    #[test]
    fn workload_and_speed_orderings() {
        let p = problem();
        // Mean ETCs: job0=1.5, job1=4.5, job2=7.5 -> ascending already.
        assert_eq!(p.jobs_by_workload(), vec![0, 1, 2]);
        // Machine means: m0=3, m1=6 -> m0 fastest.
        assert_eq!(p.machines_by_speed(), vec![0, 1]);
    }

    #[test]
    fn fitness_uses_weights() {
        let p = problem();
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // lambda 0.75: 0.75*10 + 0.25*(40/2) = 7.5 + 5 = 12.5
        assert!((p.fitness(obj) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn reweighted_changes_only_the_fitness() {
        let p = problem();
        let q = p.reweighted(FitnessWeights::new(0.25));
        assert_eq!(p.nb_jobs(), q.nb_jobs());
        assert_eq!(p.etc_row(1), q.etc_row(1));
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // lambda 0.25: 0.25*10 + 0.75*(40/2) = 2.5 + 15 = 17.5
        assert!((q.fitness(obj) - 17.5).abs() < 1e-12);
        assert!((p.fitness(obj) - 12.5).abs() < 1e-12, "original untouched");
    }

    #[test]
    fn retargeted_blends_toward_mean_flowtime() {
        let p = problem();
        let obj = Objectives {
            makespan: 10.0,
            flowtime: 40.0,
        };
        // Classic default: bitwise the pure Eq.-3 value.
        assert_eq!(p.objective(), Objective::classic());
        assert_eq!(
            p.fitness(obj).to_bits(),
            p.weights().fitness(obj, p.nb_machines()).to_bits()
        );
        // λ = 1: pure mean flowtime (40 / 2 machines).
        let response = p.retargeted(Objective::mean_flowtime());
        assert_eq!(response.fitness(obj), 20.0);
        // λ = 0.5: halfway between Eq. 3 (12.5) and mean flowtime (20).
        let half = p.retargeted(Objective::weighted(0.5));
        assert!((half.fitness(obj) - 16.25).abs() < 1e-12);
        // Instance data untouched.
        assert_eq!(p.etc_row(1), response.etc_row(1));
        assert_eq!(p.fitness(obj), 12.5, "original untouched");
    }

    #[test]
    fn tick_copy_is_built_on_first_evaluator_read_only() {
        let p = problem();
        assert!(p.ticks.get().is_none(), "construction builds no ticks");
        let _ = p.etc_row(0);
        assert!(p.ticks.get().is_none(), "f64 reads build no ticks");
        assert_eq!(p.ticks().etc(1, 1), ticks::ticks(6.0));
        assert_eq!(p.ticks().ready(0), ticks::ticks(0.5));
        assert!(p.ticks.get().is_some());
        assert_eq!(p, problem(), "equality ignores the tick cache");
    }

    #[test]
    fn evaluator_copies_share_one_tick_copy() {
        let p = problem();
        let q = p.reweighted(FitnessWeights::new(0.25));
        let r = p.retargeted(Objective::mean_flowtime());
        assert!(p.ticks.get().is_some(), "the original is quantised once");
        assert!(q.ticks.get().is_some() && r.ticks.get().is_some());
        assert_eq!(q.ticks().etc_row(2), p.ticks().etc_row(2));
        assert_eq!(r.ticks().ready(0), p.ticks().ready(0));
    }

    #[test]
    fn refill_keeps_capacity_and_rebuilds_only_a_built_tick_copy() {
        let big = GridInstance::new("big", EtcMatrix::from_fn(8, 4, |j, m| (1 + j + m) as f64));
        let mut p = Problem::from_instance(&big);
        let _ = p.ticks();
        let capacity = (p.etc.capacity(), p.ticks.get().map(|t| t.etc.capacity()));
        let small = instance();
        p.refill(&small);
        assert_eq!(p, problem());
        assert_eq!(
            (p.etc.capacity(), p.ticks.get().map(|t| t.etc.capacity())),
            capacity
        );
        assert_eq!(
            p.ticks().etc_row(2),
            &[ticks::ticks(5.0), ticks::ticks(10.0)]
        );
        let mut cold = Problem::default();
        cold.refill(&small);
        assert!(cold.ticks.get().is_none(), "a cold problem stays cold");
        assert_eq!(cold, p);
    }

    #[test]
    fn orderings_are_deterministic_under_ties() {
        let etc = EtcMatrix::from_rows(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let p = Problem::from_instance(&GridInstance::new("tie", etc));
        assert_eq!(p.jobs_by_workload(), vec![0, 1]);
        assert_eq!(p.machines_by_speed(), vec![0, 1]);
    }
}
