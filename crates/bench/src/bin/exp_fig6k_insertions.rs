//! Fig. 6(k) — IncMatch vs Match under insertion-only batches on the
//! (simulated) YouTube graph, |δ| from 200 to 1600 (scaled by `--scale`).
//! `--dataset-dir <path>` runs it on a real on-disk dataset instead.

use gpm_bench::{run_update_experiment, HarnessArgs, UpdateMix};

fn main() {
    let args = HarnessArgs::from_env();
    run_update_experiment(
        "Fig. 6(k): IncMatch vs Match, insertions only",
        UpdateMix::Insertions,
        &[200, 400, 600, 800, 1000, 1200, 1400, 1600],
        "insertions have a stronger impact than deletions — the affected area\n\
         per insertion grows quickly (|AFF| up to thousands), so the advantage of IncMatch\n\
         narrows as |δ| grows.",
        &args,
    );
    args.finish_obs();
}
