//! Minimal command-line argument handling shared by the experiment binaries.
//!
//! Only a handful of flags are needed (`--scale`, `--seed`, `--patterns`,
//! `--threads`, `--oracle`, `--dataset-dir`, `--dataset`, `--obs`,
//! `--obs-out`, `--json`), so a tiny hand-rolled parser keeps the harness free of CLI
//! dependencies.

use gpm::{Dataset, DatasetSource, OracleBackend, Parallelism};
use std::path::PathBuf;

/// Common harness arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessArgs {
    /// Fraction of the paper's dataset sizes to generate.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of random patterns to average over.
    pub patterns: usize,
    /// Worker threads for the parallel runtime (`0` = process default:
    /// `GPM_THREADS` or all available cores). Lets the Fig. 6(f)–(h)
    /// experiments sweep 1→8 cores from the command line.
    pub threads: usize,
    /// The distance backend every matcher/service in the experiment runs on
    /// (`--oracle matrix|two-hop`; defaults to the `GPM_ORACLE` environment
    /// variable, i.e. `matrix` when unset).
    pub oracle: OracleBackend,
    /// Directory of on-disk datasets (`<name>.edges` + optional
    /// `<name>.attrs`, see `gpm::graph::dataset`). When set, experiments run
    /// on the real files instead of the synthetic stand-ins.
    pub dataset_dir: Option<PathBuf>,
    /// Restrict to one dataset by name (an on-disk file stem when
    /// `--dataset-dir` is set, otherwise `Matter`/`PBlog`/`YouTube`,
    /// case-insensitive).
    pub dataset: Option<String>,
    /// Per-curve wall-clock budget in milliseconds for baselines with
    /// exponential worst cases (VF2 in the Fig. 6(b) sweep): once a
    /// pattern-size's accumulated baseline time crosses the budget, larger
    /// sizes skip that baseline instead of hanging the harness.
    pub cutoff_ms: u64,
    /// Enables the `gpm-obs` observability layer for this run (`--obs`,
    /// equivalent to `GPM_OBS=1`): binaries that support it print a
    /// `Registry::report()` dump after their tables.
    pub obs: bool,
    /// JSONL sink path for `gpm-obs` events and snapshots (`--obs-out`,
    /// equivalent to `GPM_OBS_OUT`). Implies `--obs`.
    pub obs_out: Option<PathBuf>,
    /// File every printed [`Table`](crate::Table) is also appended to, one
    /// JSON line per table (`--json`).
    pub json: Option<PathBuf>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.25,
            seed: 2010,
            patterns: 5,
            threads: 0,
            oracle: OracleBackend::from_env(),
            dataset_dir: None,
            dataset: None,
            cutoff_ms: 2_000,
            obs: false,
            obs_out: None,
            json: None,
        }
    }
}

impl HarnessArgs {
    /// Parses the harness flags from an iterator of arguments (unknown
    /// arguments are reported with an error message).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut take_value = |name: &str| {
                iter.next()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg.as_str() {
                "--scale" => {
                    out.scale = take_value("--scale")?
                        .parse()
                        .map_err(|e| format!("invalid --scale: {e}"))?;
                }
                "--seed" => {
                    out.seed = take_value("--seed")?
                        .parse()
                        .map_err(|e| format!("invalid --seed: {e}"))?;
                }
                "--patterns" => {
                    out.patterns = take_value("--patterns")?
                        .parse()
                        .map_err(|e| format!("invalid --patterns: {e}"))?;
                }
                "--threads" => {
                    out.threads = take_value("--threads")?
                        .parse()
                        .map_err(|e| format!("invalid --threads: {e}"))?;
                }
                "--oracle" => {
                    out.oracle = OracleBackend::parse(&take_value("--oracle")?)
                        .map_err(|e| format!("invalid --oracle: {e}"))?;
                }
                "--dataset-dir" => {
                    out.dataset_dir = Some(PathBuf::from(take_value("--dataset-dir")?));
                }
                "--dataset" => {
                    out.dataset = Some(take_value("--dataset")?);
                }
                "--cutoff-ms" => {
                    out.cutoff_ms = take_value("--cutoff-ms")?
                        .parse()
                        .map_err(|e| format!("invalid --cutoff-ms: {e}"))?;
                }
                "--obs" => {
                    out.obs = true;
                }
                "--obs-out" => {
                    out.obs_out = Some(PathBuf::from(take_value("--obs-out")?));
                    out.obs = true;
                }
                "--json" => {
                    out.json = Some(PathBuf::from(take_value("--json")?));
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: <experiment> [--scale <f>] [--seed <n>] [--patterns <n>] \
                         [--threads <n>] [--oracle matrix|two-hop] [--dataset-dir <path>] \
                         [--dataset <name>] [--cutoff-ms <n>] [--obs] [--obs-out <path>] \
                         [--json <path>]"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.scale <= 0.0 || !out.scale.is_finite() {
            return Err("--scale must be a positive number".to_string());
        }
        if out.patterns == 0 {
            return Err("--patterns must be at least 1".to_string());
        }
        if out.cutoff_ms == 0 {
            return Err("--cutoff-ms must be at least 1".to_string());
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => {
                args.install();
                args
            }
            Err(msg) => exit_with(&msg),
        }
    }

    /// Makes the parsed `--obs`/`--obs-out`/`--json` choices process-wide.
    fn install(&self) {
        if self.obs {
            gpm::obs::set_enabled(true);
        }
        if let Some(path) = &self.obs_out {
            gpm::obs::set_out_path(path);
        }
        if let Some(path) = &self.json {
            crate::table::set_json_path(path);
        }
    }

    /// Closes the run's observability output; every binary calls it last.
    /// With `--obs` it prints the registry's report; with `--obs-out` it
    /// also appends a final full-registry snapshot to the JSONL sink and
    /// checks that every line of the sink parses.
    pub fn finish_obs(&self) {
        if !self.obs {
            return;
        }
        println!("\n{}", gpm::obs::registry().report());
        if let Some(path) = &self.obs_out {
            gpm::obs::registry().export_snapshot();
            let lines = crate::obs_jsonl_check_or_exit(path);
            println!("obs JSONL OK ({lines} lines, {})", path.display());
        }
    }

    /// Scales one of the paper's workload sizes.
    pub fn scaled(&self, paper_size: usize) -> usize {
        ((paper_size as f64 * self.scale).round() as usize).max(8)
    }

    /// The [`Parallelism`] policy selected by `--threads` (the process
    /// default when the flag is 0/absent).
    pub fn parallelism(&self) -> Parallelism {
        if self.threads == 0 {
            Parallelism::from_env()
        } else {
            Parallelism::new(self.threads)
        }
    }

    /// The dataset sources the multi-dataset experiments (Fig. 6(e),
    /// Table 1) iterate over.
    ///
    /// With `--dataset-dir`, every `*.edges` file in the directory is one
    /// source — the experiments consume the real on-disk crawls and never
    /// fall back to synthetic generation. Without it, the three simulated
    /// stand-ins of the paper are used. `--dataset <name>` narrows either
    /// list to one entry (exact, case-insensitive).
    pub fn dataset_sources(&self) -> Result<Vec<DatasetSource>, String> {
        let all = match &self.dataset_dir {
            Some(dir) => {
                let found = DatasetSource::discover(dir).map_err(|e| e.to_string())?;
                if found.is_empty() {
                    return Err(format!("no `*.edges` datasets found in {}", dir.display()));
                }
                found
            }
            None => Dataset::ALL.map(DatasetSource::Synthetic).to_vec(),
        };
        match &self.dataset {
            None => Ok(all),
            Some(name) => {
                let picked: Vec<DatasetSource> = all
                    .iter()
                    .filter(|s| s.name().eq_ignore_ascii_case(name))
                    .cloned()
                    .collect();
                if picked.is_empty() {
                    let known: Vec<String> = all.iter().map(DatasetSource::name).collect();
                    Err(format!(
                        "unknown dataset `{name}` (available: {})",
                        known.join(", ")
                    ))
                } else {
                    Ok(picked)
                }
            }
        }
    }

    /// The single source used by the experiments that the paper runs on one
    /// graph (Exp-1, Figs. 6(i)–(k), the |AFF|/|Gr| statistics): the first
    /// [`HarnessArgs::dataset_sources`] entry when `--dataset-dir` or
    /// `--dataset` is given, the simulated YouTube graph otherwise.
    pub fn update_source(&self) -> Result<DatasetSource, String> {
        if self.dataset_dir.is_none() && self.dataset.is_none() {
            return Ok(DatasetSource::Synthetic(Dataset::YouTube));
        }
        Ok(self.dataset_sources()?.remove(0))
    }

    /// [`HarnessArgs::dataset_sources`], exiting with the message on error
    /// (the experiment binaries' shared error path).
    pub fn dataset_sources_or_exit(&self) -> Vec<DatasetSource> {
        self.dataset_sources().unwrap_or_else(|msg| exit_with(&msg))
    }

    /// [`HarnessArgs::update_source`], exiting with the message on error.
    pub fn update_source_or_exit(&self) -> DatasetSource {
        self.update_source().unwrap_or_else(|msg| exit_with(&msg))
    }
}

/// Arguments of the `svc_loadgen` network load driver: the common
/// [`HarnessArgs`] plus the load-shape flags. Loadgen-specific flags are
/// extracted first and everything else is delegated to
/// [`HarnessArgs::parse_from`], so `--scale`, `--oracle`, `--obs-out` etc.
/// behave exactly as in every other binary.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadgenArgs {
    /// The shared harness flags.
    pub harness: HarnessArgs,
    /// Target sustained rate in updates per second (`--rate`).
    pub rate: f64,
    /// The K sweep: registered queries per cell (`--queries 2,8,16`).
    pub queries: Vec<usize>,
    /// The M sweep: subscribers per query (`--subscribers 1,4`).
    pub subscribers: Vec<usize>,
    /// Batches per cell (`--batches`).
    pub batches: usize,
    /// Updates per batch (`--batch-size`).
    pub batch_size: usize,
}

impl Default for LoadgenArgs {
    fn default() -> Self {
        LoadgenArgs {
            harness: HarnessArgs::default(),
            rate: 2_000.0,
            queries: vec![2, 8, 16],
            subscribers: vec![1, 4],
            batches: 40,
            batch_size: 50,
        }
    }
}

impl LoadgenArgs {
    /// Parses loadgen flags from an iterator, delegating unrecognised
    /// arguments to [`HarnessArgs::parse_from`].
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = LoadgenArgs::default();
        let mut rest = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut take_value = |name: &str| {
                iter.next()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg.as_str() {
                "--rate" => {
                    out.rate = take_value("--rate")?
                        .parse()
                        .map_err(|e| format!("invalid --rate: {e}"))?;
                }
                "--queries" => {
                    out.queries = parse_usize_list("--queries", &take_value("--queries")?)?;
                }
                "--subscribers" => {
                    out.subscribers =
                        parse_usize_list("--subscribers", &take_value("--subscribers")?)?;
                }
                "--batches" => {
                    out.batches = take_value("--batches")?
                        .parse()
                        .map_err(|e| format!("invalid --batches: {e}"))?;
                }
                "--batch-size" => {
                    out.batch_size = take_value("--batch-size")?
                        .parse()
                        .map_err(|e| format!("invalid --batch-size: {e}"))?;
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: svc_loadgen [--rate <updates/s>] [--queries <k,k,...>] \
                         [--subscribers <m,m,...>] [--batches <n>] [--batch-size <n>] \
                         + the common harness flags (see any experiment's --help)"
                            .to_string(),
                    )
                }
                _ => rest.push(arg),
            }
        }
        if !(out.rate.is_finite() && out.rate > 0.0) {
            return Err("--rate must be a positive number".to_string());
        }
        if out.batches == 0 || out.batch_size == 0 {
            return Err("--batches and --batch-size must be at least 1".to_string());
        }
        out.harness = HarnessArgs::parse_from(rest)?;
        Ok(out)
    }

    /// Parses the process arguments, exiting with a message on error, with
    /// the same environment propagation as [`HarnessArgs::from_env`].
    pub fn from_env() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => {
                args.harness.install();
                args
            }
            Err(msg) => exit_with(&msg),
        }
    }
}

fn parse_usize_list(name: &str, text: &str) -> Result<Vec<usize>, String> {
    let list: Result<Vec<usize>, _> = text.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(v) if !v.is_empty() && v.iter().all(|&x| x > 0) => Ok(v),
        _ => Err(format!(
            "invalid {name}: expected a comma-separated list of positive integers, got `{text}`"
        )),
    }
}

fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Loads a source's graph, exiting the process with a readable message when
/// the on-disk files are missing or malformed (the experiment binaries'
/// shared error path).
pub fn load_source_or_exit(source: &DatasetSource, args: &HarnessArgs) -> gpm::DataGraph {
    match source.load(args.scale, args.seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to load dataset `{}`: {e}", source.name());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm::graph::dataset::write_dataset;
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, HarnessArgs::default());
        assert!(a.scale > 0.0);
        assert!(a.dataset_dir.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "99",
            "--patterns",
            "20",
            "--threads",
            "4",
            "--oracle",
            "two-hop",
            "--dataset-dir",
            "fixtures",
            "--dataset",
            "mini-youtube",
            "--cutoff-ms",
            "750",
            "--obs-out",
            "/tmp/obs.jsonl",
            "--json",
            "/tmp/tables.jsonl",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 99);
        assert_eq!(a.patterns, 20);
        assert_eq!(a.threads, 4);
        assert_eq!(a.parallelism().threads(), 4);
        assert_eq!(a.oracle, OracleBackend::TwoHop);
        assert_eq!(a.dataset_dir.as_deref(), Some(Path::new("fixtures")));
        assert_eq!(a.dataset.as_deref(), Some("mini-youtube"));
        assert_eq!(a.cutoff_ms, 750);
        assert!(a.obs, "--obs-out implies --obs");
        assert_eq!(a.obs_out.as_deref(), Some(Path::new("/tmp/obs.jsonl")));
        assert_eq!(a.json.as_deref(), Some(Path::new("/tmp/tables.jsonl")));

        let b = parse(&["--obs"]).unwrap();
        assert!(b.obs);
        assert!(b.obs_out.is_none());
    }

    #[test]
    fn threads_zero_means_process_default() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.threads, 0);
        assert!(a.parallelism().threads() >= 1);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--patterns", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--oracle"]).is_err());
        assert!(parse(&["--oracle", "bfs"]).is_err());
        assert!(parse(&["--dataset-dir"]).is_err());
        assert!(parse(&["--dataset"]).is_err());
        assert!(parse(&["--cutoff-ms", "0"]).is_err());
        assert!(parse(&["--cutoff-ms", "abc"]).is_err());
        assert!(parse(&["--obs-out"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn loadgen_args_split_from_harness_flags() {
        let parse_lg = |args: &[&str]| LoadgenArgs::parse_from(args.iter().map(|s| s.to_string()));
        let a = parse_lg(&[
            "--rate",
            "500",
            "--queries",
            "2,4",
            "--subscribers",
            "3",
            "--batches",
            "10",
            "--batch-size",
            "20",
            "--scale",
            "0.5",
            "--oracle",
            "two-hop",
        ])
        .unwrap();
        assert_eq!(a.rate, 500.0);
        assert_eq!(a.queries, vec![2, 4]);
        assert_eq!(a.subscribers, vec![3]);
        assert_eq!(a.batches, 10);
        assert_eq!(a.batch_size, 20);
        assert_eq!(a.harness.scale, 0.5);
        assert_eq!(a.harness.oracle, OracleBackend::TwoHop);

        let d = parse_lg(&[]).unwrap();
        assert_eq!(d, LoadgenArgs::default());

        assert!(parse_lg(&["--rate", "0"]).is_err());
        assert!(parse_lg(&["--queries", "2,0"]).is_err());
        assert!(parse_lg(&["--queries", "x"]).is_err());
        assert!(parse_lg(&["--batches", "0"]).is_err());
        assert!(
            parse_lg(&["--bogus"]).is_err(),
            "unknown flags still rejected"
        );
        assert!(parse_lg(&["--help"]).is_err());
    }

    #[test]
    fn scaled_sizes() {
        let a = parse(&["--scale", "0.1"]).unwrap();
        assert_eq!(a.scaled(1000), 100);
        assert_eq!(a.scaled(10), 8, "clamped to a useful minimum");
    }

    #[test]
    fn default_sources_are_the_three_synthetic_datasets() {
        let a = parse(&[]).unwrap();
        let sources = a.dataset_sources().unwrap();
        assert_eq!(sources.len(), 3);
        assert!(sources.iter().all(DatasetSource::is_synthetic));
        assert_eq!(
            a.update_source().unwrap(),
            DatasetSource::Synthetic(Dataset::YouTube)
        );
    }

    #[test]
    fn dataset_flag_filters_synthetic_sources() {
        let a = parse(&["--dataset", "pblog"]).unwrap();
        let sources = a.dataset_sources().unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].name(), "PBlog");
        assert_eq!(a.update_source().unwrap().name(), "PBlog");
        let err = parse(&["--dataset", "nope"]).unwrap().dataset_sources();
        assert!(err.unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn dataset_dir_discovers_on_disk_sources_with_no_synthetic_fallback() {
        let dir = std::env::temp_dir().join(format!("gpm-args-test-{}", std::process::id()));
        let g = Dataset::PBlog.generate(0.01, 1);
        write_dataset(&dir, "crawl-a", &g).unwrap();
        write_dataset(&dir, "crawl-b", &g).unwrap();

        let a = parse(&["--dataset-dir", dir.to_str().unwrap()]).unwrap();
        let sources = a.dataset_sources().unwrap();
        assert_eq!(sources.len(), 2);
        assert!(sources.iter().all(|s| !s.is_synthetic()));
        assert_eq!(sources[0].name(), "crawl-a");
        assert_eq!(a.update_source().unwrap().name(), "crawl-a");

        let b = parse(&[
            "--dataset-dir",
            dir.to_str().unwrap(),
            "--dataset",
            "crawl-b",
        ])
        .unwrap();
        let sources = b.dataset_sources().unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].name(), "crawl-b");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dataset_dir_is_an_error_not_a_fallback() {
        let dir = std::env::temp_dir().join(format!("gpm-args-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = parse(&["--dataset-dir", dir.to_str().unwrap()]).unwrap();
        assert!(a.dataset_sources().unwrap_err().contains("no `*.edges`"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
