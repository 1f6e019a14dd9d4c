//! The `szr` evaluation harness: one module per table/figure of the paper.
//!
//! Each `exp_*` module exposes a `run(&Context) -> Vec<Table>` that
//! regenerates the corresponding artifact of the IPDPS'17 evaluation
//! (§V–§VI) on the synthetic data sets. The `experiments` binary dispatches
//! subcommands to these modules and writes `results/<id>.{md,csv}`.
//!
//! The harness is deliberately not a benchmark framework: these
//! experiments reproduce the *shape* of the paper's results — who wins, by
//! what factor, where the crossovers sit. Speed is measured by the
//! performance ledger (`BENCHMARK.json`, `ledger/`), the measurement of
//! record. The Criterion benches in `benches/` keep only comparisons no
//! ledger workload runs: the standalone Huffman LUT rate, the generic and
//! two-layer scan kernels, and fused table reuse. The `bench_gates` binary
//! holds the two timing gates no deterministic test can state.

pub mod codecs;
pub mod harness;

pub mod exp_ablate;
pub mod exp_fig10;
pub mod exp_fig3;
pub mod exp_fig4;
pub mod exp_fig6;
pub mod exp_fig7;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_planner;
pub mod exp_scaling;
pub mod exp_table2;
pub mod exp_table4;
pub mod exp_table5;
pub mod exp_table6;
pub mod exp_vq;

pub use harness::{Context, Table};
