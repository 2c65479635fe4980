//! Fig. 6(j) — IncMatch vs Match under deletion-only batches on the
//! (simulated) YouTube graph, |δ| from 200 to 1600 (scaled by `--scale`).
//! `--dataset-dir <path>` runs it on a real on-disk dataset instead.

use gpm_bench::{run_update_experiment, HarnessArgs, UpdateMix};

fn main() {
    let args = HarnessArgs::from_env();
    run_update_experiment(
        "Fig. 6(j): IncMatch vs Match, deletions only",
        UpdateMix::Deletions,
        &[200, 400, 600, 800, 1000, 1200, 1400, 1600],
        "IncMatch is not sensitive to edge deletions — the affected area per\n\
         deletion stays tiny (|AFF| around 7-12), so IncMatch wins across the whole range.",
        &args,
    );
    args.finish_obs();
}
