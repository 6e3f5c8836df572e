//! The **site** dimension of the grid: machines partitioned across
//! federated sites, mirroring the decentralized/hierarchical grid
//! topologies of the dynamic-scheduling literature. Two things live
//! here:
//!
//! * [`SiteTopology`] — the deterministic machine→site map
//!   (`machine_id mod sites`). Machine ids are dense and never
//!   recycled, so the partition is stable for the life of a run and
//!   identical across shard counts, backends, and thread counts.
//! * The per-site **snapshot build**: each activation's ETC slice is
//!   gathered per site (optionally on shard-worker threads) and
//!   assembled into the row-major `GridInstance` matrix the *global*
//!   scheduler plans over — sharding the simulator, not the policy.
//!
//! Determinism: `World::etc` and `RecoveryPolicy::inflate` are pure
//! functions of `(job spec, machine spec)`, so every cell of the
//! assembled matrix is bit-identical whether it was computed inline,
//! per site sequentially, or per site on 2/4/8 worker threads. The
//! sharding property tests pin this against the single-loop digests.

use crate::fault::{FailureModel, RecoveryPolicy};
use crate::workload::{JobSpec, MachineSpec, World};

/// Deterministic partition of machines across grid sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteTopology {
    sites: usize,
}

impl SiteTopology {
    /// A topology with `sites` sites (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    #[must_use]
    pub fn new(sites: usize) -> Self {
        assert!(sites >= 1, "a grid has at least one site");
        Self { sites }
    }

    /// Number of sites.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The site owning `machine`: `machine mod sites`. Stable for the
    /// whole run — ids are dense, monotone and never recycled — and
    /// spreads heterogeneous machines evenly across sites.
    #[inline]
    #[must_use]
    pub fn site_of(&self, machine: u64) -> usize {
        // Lossless: the remainder is < sites, itself a usize.
        (machine % self.sites as u64) as usize
    }
}

impl Default for SiteTopology {
    /// A single-site grid — the classic centralized topology.
    fn default() -> Self {
        Self::new(1)
    }
}

/// Reusable buffers of the per-site snapshot build, owned by the
/// simulator's dispatch scratch so multi-site activations stay
/// allocation-steady.
#[derive(Debug, Default)]
pub(crate) struct SiteScratch {
    /// Snapshot row job specs, copied once per activation so worker
    /// threads can borrow them without touching the job arena.
    pub job_specs: Vec<JobSpec>,
    /// Snapshot column indices per site.
    pub cols: Vec<Vec<u32>>,
    /// Per-site row-major ETC slices (rows × site columns).
    pub etc: Vec<Vec<f64>>,
}

/// Fills `out` with the row-major `jobs × machines` ETC snapshot.
///
/// Single-site (or single-worker) grids take the direct path — the
/// exact seed loop, no copies. Multi-site grids gather each site's
/// column slice independently (on up to `workers` scoped threads) and
/// scatter the slices into `out`; every cell is the same pure
/// `etc`/`inflate` evaluation either way, so the result is
/// bit-identical across paths. Returns per-site wall seconds when
/// `profile` is set (multi-site paths only; informational, like every
/// other wall measurement).
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_etc_snapshot(
    topology: SiteTopology,
    workers: usize,
    world: &World,
    inflate: Option<(RecoveryPolicy, FailureModel)>,
    machine_ids: &[u64],
    machine_specs: &[MachineSpec],
    scratch: &mut SiteScratch,
    out: &mut Vec<f64>,
    profile: bool,
) -> Vec<(usize, f64)> {
    let nb_jobs = scratch.job_specs.len();
    let nb_machines = machine_specs.len();
    out.clear();
    if topology.sites() == 1 {
        // Centralized fast path: the same cells as `cell`, with the
        // inflation choice made once per row rather than once per cell,
        // so each row is one `extend`.
        out.reserve(nb_jobs * nb_machines);
        for job in &scratch.job_specs {
            match inflate {
                None => world.extend_row(job, machine_specs, out, |etc| etc),
                Some((recovery, failures)) => world.extend_row(job, machine_specs, out, |etc| {
                    recovery.inflate(etc, &failures)
                }),
            }
        }
        return Vec::new();
    }

    // Partition snapshot columns by site.
    let sites = topology.sites();
    if scratch.cols.len() < sites {
        scratch.cols.resize_with(sites, Vec::new);
        scratch.etc.resize_with(sites, Vec::new);
    }
    for site in 0..sites {
        scratch.cols[site].clear();
        scratch.etc[site].clear();
    }
    for (col, &id) in machine_ids.iter().enumerate() {
        scratch.cols[topology.site_of(id)].push(col as u32);
    }

    // Gather each site's slice. Worker threads split the sites in
    // contiguous chunks; a lone worker gathers inline (no spawn, so
    // single-worker multi-site runs stay on the seed's thread and the
    // allocation pin holds).
    let job_specs = &scratch.job_specs;
    let spans = if workers <= 1 {
        let mut spans = Vec::new();
        for (site, (etc, cols)) in scratch.etc[..sites]
            .iter_mut()
            .zip(&scratch.cols[..sites])
            .enumerate()
        {
            let span =
                gather_site_slice(world, inflate, job_specs, machine_specs, cols, etc, profile);
            if let Some(secs) = span {
                spans.push((site, secs));
            }
        }
        spans
    } else {
        let chunk = sites.div_ceil(workers.min(sites));
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut base = 0usize;
            for (etc_chunk, cols_chunk) in scratch.etc[..sites]
                .chunks_mut(chunk)
                .zip(scratch.cols[..sites].chunks(chunk))
            {
                let first = base;
                base += etc_chunk.len();
                handles.push(scope.spawn(move || {
                    let mut spans = Vec::new();
                    for (offset, (etc, cols)) in etc_chunk.iter_mut().zip(cols_chunk).enumerate() {
                        let span = gather_site_slice(
                            world,
                            inflate,
                            job_specs,
                            machine_specs,
                            cols,
                            etc,
                            profile,
                        );
                        if let Some(secs) = span {
                            spans.push((first + offset, secs));
                        }
                    }
                    spans
                }));
            }
            let mut spans = Vec::new();
            for handle in handles {
                spans.extend(handle.join().expect("site snapshot worker panicked"));
            }
            spans
        })
    };

    // Assemble the slices into the row-major global matrix in site
    // order — a deterministic scatter of already-final values.
    out.resize(nb_jobs * nb_machines, 0.0);
    for site in 0..sites {
        let cols = &scratch.cols[site];
        if cols.is_empty() {
            continue;
        }
        let etc = &scratch.etc[site];
        for row in 0..nb_jobs {
            let slice = &etc[row * cols.len()..(row + 1) * cols.len()];
            for (&col, &value) in cols.iter().zip(slice) {
                out[row * nb_machines + col as usize] = value;
            }
        }
    }
    spans
}

/// One ETC cell: the pure evaluation every fill path shares.
#[inline]
fn cell(
    world: &World,
    inflate: Option<(RecoveryPolicy, FailureModel)>,
    job: &JobSpec,
    machine: &MachineSpec,
) -> f64 {
    let etc = world.etc(job, machine);
    match inflate {
        Some((recovery, failures)) => recovery.inflate(etc, &failures),
        None => etc,
    }
}

/// Gathers one site's row-major ETC slice; returns its wall span when
/// profiling.
fn gather_site_slice(
    world: &World,
    inflate: Option<(RecoveryPolicy, FailureModel)>,
    job_specs: &[JobSpec],
    machine_specs: &[MachineSpec],
    cols: &[u32],
    etc: &mut Vec<f64>,
    profile: bool,
) -> Option<f64> {
    if cols.is_empty() {
        return None;
    }
    // lint:allow(no-wall-clock-in-sim): legit profiling span — per-site snapshot-build attribution is informational-only (mirrors the Phase profiler's pin); the gathered ETC values never depend on it.
    let started = profile.then(std::time::Instant::now);
    etc.reserve(job_specs.len() * cols.len());
    for spec in job_specs {
        for &col in cols {
            etc.push(cell(world, inflate, spec, &machine_specs[col as usize]));
        }
    }
    started.map(|t| t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmags_etc::Consistency;

    #[test]
    fn site_of_partitions_evenly_and_deterministically() {
        let topology = SiteTopology::new(4);
        for machine in 0..64u64 {
            assert_eq!(topology.site_of(machine), (machine % 4) as usize);
        }
        assert_eq!(SiteTopology::default().sites(), 1);
        assert_eq!(SiteTopology::default().site_of(123), 0);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_is_rejected() {
        let _ = SiteTopology::new(0);
    }

    /// Fills one snapshot and checks every cell, bit for bit, against
    /// the per-cell definition `cell` — so the centralized fast path and
    /// every sharded path agree with each other too.
    fn check_snapshot(
        world: World,
        inflate: Option<(RecoveryPolicy, FailureModel)>,
        sites: usize,
        workers: usize,
    ) {
        let (nb_jobs, nb_machines) = (13, 10);
        let mut scratch = SiteScratch {
            job_specs: (0..nb_jobs as u64)
                .map(|id| JobSpec {
                    id,
                    arrival: 0.0,
                    baseline: 100.0 + id as f64,
                })
                .collect(),
            ..SiteScratch::default()
        };
        let machine_ids: Vec<u64> = (0..nb_machines as u64).collect();
        let machine_specs: Vec<MachineSpec> = machine_ids
            .iter()
            .map(|&id| MachineSpec {
                id,
                slowness: 1.0 + id as f64 / 7.0,
            })
            .collect();
        let mut out = Vec::new();
        fill_etc_snapshot(
            SiteTopology::new(sites),
            workers,
            &world,
            inflate,
            &machine_ids,
            &machine_specs,
            &mut scratch,
            &mut out,
            false,
        );
        assert_eq!(out.len(), nb_jobs * nb_machines);
        for (row, job) in scratch.job_specs.iter().enumerate() {
            for (col, machine) in machine_specs.iter().enumerate() {
                assert_eq!(
                    out[row * nb_machines + col].to_bits(),
                    cell(&world, inflate, job, machine).to_bits(),
                    "cell ({row}, {col}) diverged at {sites} sites / {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_snapshot_is_bit_identical_to_centralized() {
        let inflated = Some((
            RecoveryPolicy {
                checkpoint_every: Some(150.0),
                ..RecoveryPolicy::default()
            },
            FailureModel::transient(1e-3),
        ));
        for consistency in [
            Consistency::Consistent,
            Consistency::SemiConsistent,
            Consistency::Inconsistent,
        ] {
            let world = World {
                consistency,
                ..World::hihi_consistent(7)
            };
            for inflate in [None, inflated] {
                check_snapshot(world, inflate, 1, 1);
                for sites in [2usize, 4, 8] {
                    for workers in [1usize, 2, 4, 8] {
                        check_snapshot(world, inflate, sites, workers);
                    }
                }
            }
        }
    }
}
