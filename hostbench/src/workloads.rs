//! The four workloads and the fixed input each round runs.
//!
//! Every workload derives all of its inputs from the seed and hands the
//! program only the generated specs. One process runs cells one after
//! another on a single host thread; the only other OS threads are the
//! simulator's own, one per simulated thread.

use crate::cells::{run_cell, CellSpec};
use crate::round::Round;
use crate::trace::Sink;
use crate::{modelcheck, service};
use elision_core::{LockKind, SchemeConfig, SchemeKind};
use elision_htm::HtmConfig;
use elision_sim::DetRng;
use elision_structures::StructureKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeContended,
    TreeSolo,
    ServiceOpenLoop,
    ModelCheck,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TreeContended,
        Workload::TreeSolo,
        Workload::ServiceOpenLoop,
        Workload::ModelCheck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeContended => "tree-contended",
            Workload::TreeSolo => "tree-solo",
            Workload::ServiceOpenLoop => "service-openloop",
            Workload::ModelCheck => "modelcheck",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many distinct inputs, derived from the seed, a run's rounds
    /// cycle through. Simulated metrics pool the first round of each,
    /// which multiplies their samples without one long round; every later
    /// round must reproduce its input's simulated outputs byte for byte.
    /// `tree-contended` costs the most host time per simulated operation,
    /// so it needs the most inputs for ten-plus samples beyond p999.
    pub fn parts(self) -> usize {
        match self {
            Workload::TreeContended => 30,
            _ => 4,
        }
    }

    /// Run input `part` (of [`Workload::parts`]) of the workload once.
    pub fn round(self, seed: u64, part: usize, sink: Option<&Sink>) -> Round {
        let mut round = Round::new(part);
        let seed = DetRng::new(seed, part as u64).next_u64();
        match self {
            Workload::TreeContended | Workload::TreeSolo => {
                for spec in tree_cells(self, seed) {
                    run_cell(&spec, &mut round, sink);
                }
            }
            Workload::ServiceOpenLoop => service::round(seed, &mut round, sink),
            Workload::ModelCheck => modelcheck::round(seed, &mut round, sink),
        }
        round
    }
}

/// A cell's seed: an input's seed mixed with the cell's index.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    DetRng::new(seed, 0xCE11 + index as u64).next_u64()
}

/// `tree-contended` operations per simulated thread per cell.
const CONTENDED_OPS: u64 = 16;
/// `tree-solo` tree size and operations per cell.
pub const SOLO_SIZE: usize = 32_768;
const SOLO_OPS: u64 = 150_000;

fn tree_cells(workload: Workload, seed: u64) -> Vec<CellSpec> {
    let grid: Vec<(SchemeKind, LockKind)> = match workload {
        // The perf-gate grid: the lemming-effect setting, HLE-MCS collapse
        // included. Host time is scheduler handoffs plus lock spinning.
        Workload::TreeContended => {
            [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::HleScm, SchemeKind::OptSlr]
                .into_iter()
                .flat_map(|s| [(s, LockKind::Ttas), (s, LockKind::Mcs)])
                .collect()
        }
        // Nothing parks: host time is htm + structures + core + locks.
        _ => [SchemeKind::Standard, SchemeKind::Hle, SchemeKind::OptSlr]
            .into_iter()
            .map(|s| (s, LockKind::Ttas))
            .collect(),
    };
    let (threads, size, ops) = match workload {
        Workload::TreeContended => (8, 512, CONTENDED_OPS),
        _ => (1, SOLO_SIZE, SOLO_OPS),
    };
    grid.into_iter()
        .enumerate()
        .map(|(i, (scheme, lock))| CellSpec {
            scheme,
            lock,
            structure: StructureKind::RbTree,
            threads,
            size,
            ops_per_thread: ops,
            htm: HtmConfig::haswell(),
            scheme_cfg: SchemeConfig::paper(),
            controlled: false,
            seed: cell_seed(seed, i),
        })
        .collect()
}
