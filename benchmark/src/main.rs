//! Command line of the repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! gpm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result object
//! gpm-benchmark [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!     the suite: every workload, one child process each
//! gpm-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//!     the suite twice, differences against the bounds of BENCHMARK.json
//! ```

use gpm_benchmark::report::{ParsedRun, Spec};
use gpm_benchmark::run::{run_end_to_end, run_trace, RunConfig, RunOutput};
use gpm_benchmark::script::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes a value; by hand a bare `--trace` is on.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The benchmark's directory: `GPM_BENCH_DIR` (set by `run.sh`), else
/// `benchmark` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("GPM_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Removes the per-run temp dir when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_output(workload: Workload, out: &RunOutput) {
    println!("{} [{}]", workload.name(), out.sizes);
    for f in &out.failures {
        println!("FAILED {}: {f}", workload.name());
    }
    for m in out.diagnostics.iter().chain(&out.result.metrics) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result.to_json());
}

/// One run of one workload, in this process.
fn run_one(workload: Workload, args: &Args, spec: &Spec, dir: &Path) -> Result<bool, String> {
    let out_dir = dir.join("out");
    let tmp = TempDir(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds as f64),
        tmp: tmp.0.clone(),
        out_dir,
    };
    let (out, declared) = if args.trace {
        (run_trace(&cfg)?, &spec.per_layer)
    } else {
        (run_end_to_end(&cfg), &spec.end_to_end)
    };
    Spec::check(declared, &out.result.metrics)?;
    print_output(workload, &out);
    Ok(out.result.correct)
}

/// One parsed child run of the suite.
struct ChildRun {
    /// The result object, with `correct` also requiring exit code 0.
    result: ParsedRun,
    /// `e2e.interference_ratio` of the run, from its metric listing.
    interference: f64,
}

/// Runs every workload, each in a child process of this executable, and
/// relays their output.
fn run_suite(args: &Args) -> Result<Vec<(Workload, ChildRun)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        let t = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        println!("  wall {:.1} s", t.elapsed().as_secs_f64());
        let last = stdout.lines().last().unwrap_or_default();
        let mut result = ParsedRun::parse(last)
            .map_err(|e| format!("{}: no result object ({e}); exit {}", w.name(), out.status))?;
        result.correct &= out.status.success();
        let interference = stdout
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("e2e.interference_ratio"))
            .find_map(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        runs.push((
            w,
            ChildRun {
                result,
                interference,
            },
        ));
    }
    Ok(runs)
}

fn print_header(args: &Args, spec: &Spec) {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "gpm-benchmark: machine `{}` ({cpu}), nproc {nproc}, commit {}, seed {}, {} s per workload, trace {}",
        host.trim(),
        std::env::var("GPM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        args.seed,
        args.seconds.unwrap_or(spec.run_seconds as f64),
        args.trace as u8,
    );
}

/// A/A: the suite twice, back to back; every end-to-end difference is
/// printed next to its bound and must stay within it, with the
/// interference ratio of both runs beside it.
fn selfcheck(args: &Args, spec: &Spec) -> Result<bool, String> {
    let first = run_suite(args)?;
    let second = run_suite(args)?;
    let mut ok = true;
    println!("\nselfcheck: relative difference of two back-to-back suites");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        ok &= a.result.correct && b.result.correct;
        println!(
            "{:<16} interference_ratio {:.2} then {:.2}",
            w.name(),
            a.interference,
            b.interference
        );
        for m in &spec.end_to_end {
            let get = |run: &ChildRun| {
                run.result
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{}: metric {} missing", w.name(), m.name))
            };
            let (x, y) = (get(a)?, get(b)?);
            let diff = (y - x).abs() / x;
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if diff <= bound { "" } else { "  EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{verdict}",
                w.name(),
                m.name,
                x,
                y,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let dir = bench_dir();
    let spec = Spec::load(&dir.join("..").join("BENCHMARK.json"))?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if spec.workloads != names {
        return Err(format!(
            "BENCHMARK.json names workloads {:?}, the benchmark runs {names:?}",
            spec.workloads
        ));
    }
    if let Some(w) = args.workload {
        return run_one(w, &args, &spec, &dir);
    }
    print_header(&args, &spec);
    let t = Instant::now();
    let ok = if args.selfcheck {
        selfcheck(&args, &spec)?
    } else {
        run_suite(&args)?.iter().all(|(_, run)| run.result.correct)
    };
    println!("suite wall {:.1} s", t.elapsed().as_secs_f64());
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gpm-benchmark: FAILED (see the FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gpm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
