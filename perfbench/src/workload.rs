//! The three workloads: their simulator configurations and schedulers.
//!
//! Each workload runs on one simulation thread with a single site, one
//! shard worker and (for the cMA) one engine thread, so the figures do
//! not depend on the host's core count.

use cmags_gridsim::scheduler::{BatchScheduler, CmaScheduler, HeuristicScheduler};
use cmags_gridsim::{FailureModel, RecoveryPolicy, RetryPolicy, SimConfig};
use cmags_heuristics::constructive::ConstructiveKind;

/// Full size for measurement, or a sized-down variant for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's cMA on the paper's 16-machine grid, ~32-job batches.
    CmaPaper,
    /// Immediate-mode MCT on ~500-job × 10⁴-machine activations.
    MctWide,
    /// MCT on 64 machines under transient failures and crashes.
    FaultStorm,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "cma_paper" => Ok(Self::CmaPaper),
            "mct_wide" => Ok(Self::MctWide),
            "fault_storm" => Ok(Self::FaultStorm),
            _ => Err(format!("unknown workload {name}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::CmaPaper => "cma_paper",
            Self::MctWide => "mct_wide",
            Self::FaultStorm => "fault_storm",
        }
    }

    /// Grids simulated per round. Each grid draws its own machine
    /// speeds and job stream from its own seed, so the simulated
    /// metrics pool several grids and vary little from seed to seed.
    pub fn grids(self, size: Size) -> u64 {
        match (self, size) {
            (_, Size::Quick) => 2,
            (Self::CmaPaper, Size::Full) => 8,
            (Self::MctWide, Size::Full) => 2,
            (Self::FaultStorm, Size::Full) => 64,
        }
    }

    /// The simulator configuration of one grid: `heavy_traffic(machines,
    /// rate, horizon, interval)`, whose activations carry about
    /// `rate · interval` jobs each.
    pub fn config(self, size: Size) -> SimConfig {
        let quick = size == Size::Quick;
        match self {
            // 32-job batches every 800 s, 13 activations per grid.
            Self::CmaPaper if quick => SimConfig::heavy_traffic(16, 0.04, 4_000.0, 400.0),
            Self::CmaPaper => SimConfig::heavy_traffic(16, 0.04, 10_400.0, 800.0),
            // 500-job batches every 25 s, 50 activations per grid.
            Self::MctWide if quick => SimConfig::heavy_traffic(1_000, 2.0, 125.0, 25.0),
            Self::MctWide => SimConfig::heavy_traffic(10_000, 20.0, 1_250.0, 25.0),
            // ~3-job batches every 25 s, 3750 activations per grid.
            Self::FaultStorm => {
                let horizon = if quick { 25_000.0 } else { 93_750.0 };
                let mut config = SimConfig::heavy_traffic(64, 0.12, horizon, 25.0);
                config.failures = FailureModel::Faulty {
                    job_fail_rate: 5e-4,
                    mtbf: 2e4,
                    mttr: 2e3,
                };
                config.recovery = RecoveryPolicy {
                    retry: RetryPolicy::ExponentialBackoff {
                        base: 50.0,
                        cap: 2e3,
                        jitter: 0.5,
                        give_up_after: 8,
                    },
                    checkpoint_every: Some(100.0),
                    blacklist_after: Some(3),
                    probation: 500.0,
                    etc_inflation: true,
                };
                config
            }
        }
    }

    /// The scheduler under test, freshly constructed.
    pub fn scheduler(self) -> Box<dyn BatchScheduler> {
        match self {
            Self::CmaPaper => Box::new(CmaScheduler::default()),
            Self::MctWide | Self::FaultStorm => {
                Box::new(HeuristicScheduler::new(ConstructiveKind::Mct))
            }
        }
    }
}
