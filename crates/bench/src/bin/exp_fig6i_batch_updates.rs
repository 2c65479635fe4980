//! Fig. 6(i) — IncMatch vs Match under mixed batches of edge insertions and
//! deletions on the (simulated) YouTube graph, |δ| from 400 to 3200 (scaled
//! by `--scale`). The Match baseline recomputes the distance matrix, as in
//! the paper. `--dataset-dir <path>` runs it on a real on-disk dataset
//! instead of the stand-in.

use gpm_bench::{run_update_experiment, HarnessArgs, UpdateMix};

fn main() {
    let args = HarnessArgs::from_env();
    run_update_experiment(
        "Fig. 6(i): IncMatch vs Match, mixed updates",
        UpdateMix::Mixed,
        &[400, 800, 1200, 1600, 2000, 2400, 2800, 3200],
        "IncMatch outperforms Match for |δ| <= 2800 and loses for larger\n\
         batches; the affected area grows with |δ|.",
        &args,
    );
    args.finish_obs();
}
