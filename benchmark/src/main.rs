//! `cole-benchmark`: the repo's one yardstick. See `README.md` for the metric
//! glossary and `../BENCHMARK.json` for the contract it is run under.
//!
//! ```text
//! cole-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                [--scale full|smoke] [--out DIR] [--label L]
//! cole-benchmark compare <dirA> <dirB>
//! ```
//!
//! With a workload and a `--trace` value, the run happens in this process and
//! the last line of standard output is the result as one JSON object. Without
//! either, every combination asked for runs **in its own process** (this
//! program starts itself again) and the last line is a summary.

#![forbid(unsafe_code)]

mod compare;
mod engine;
mod env;
mod json;
mod layers;
mod loadgen;
mod model;
mod openloop;
mod phases;
mod report;
mod span;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use workloads::{Opts, Spec, SPECS};

/// Parsed command line of a run.
struct Cli {
    workload: Option<&'static Spec>,
    /// `Some(false)` untraced, `Some(true)` traced, `None` both.
    trace: Option<bool>,
    seconds: Option<u64>,
    opts: Opts,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: cole-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                     [--scale full|smoke] [--out DIR] [--label L]\n\
         \x20      cole-benchmark compare <dirA> <dirB>\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        seconds: None,
        opts: Opts {
            seed: 11,
            seconds: 20,
            trace: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
            label: None,
        },
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // `--trace` may stand alone (= 1); every other flag takes a value.
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        if flag == "--trace" && value.is_none() {
            cli.trace = Some(true);
            i += 1;
            continue;
        }
        let value = value.ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag {
            "--workload" => {
                cli.workload = Some(
                    SPECS
                        .iter()
                        .find(|s| s.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                );
            }
            "--seed" => cli.opts.seed = number()?,
            "--seconds" => match number()? {
                s @ 1..=60 => cli.seconds = Some(s),
                _ => return Err("--seconds must be between 1 and 60".into()),
            },
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    "both" => None,
                    _ => return Err("--trace takes 0, 1 or both".into()),
                }
            }
            "--scale" => {
                cli.opts.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err("--scale takes full or smoke".into()),
                }
            }
            "--out" => cli.opts.out = PathBuf::from(value),
            "--label" => cli.opts.label = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
        i += 2;
    }
    // A smoke run is one second unless told otherwise.
    cli.opts.seconds = cli.seconds.unwrap_or(if cli.opts.smoke { 1 } else { 20 });
    Ok(cli)
}

/// Set in the environment of a process that has already been confined to
/// one CPU (or for which that was tried and is not possible).
const PINNED: &str = "COLE_BENCHMARK_PINNED";

/// Starts this program again under `taskset`, confined to the first CPU it
/// is allowed on, and waits for it. `None` if that cannot be done (no
/// `taskset`, no permission): the run then goes ahead unconfined and says so.
fn run_pinned(args: &[String]) -> Option<ExitCode> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpu: String = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let exe = std::env::current_exe().ok()?;
    let taskset = |program: &std::ffi::OsStr| {
        let mut command = Command::new("taskset");
        command.args(["-c", &cpu]).arg(program);
        command
    };
    // A dry run first, so that a failure of `taskset` itself is never
    // mistaken for the benchmark's own exit status.
    let probe = taskset("true".as_ref())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?;
    if !probe.success() {
        return None;
    }
    let status = taskset(exe.as_os_str())
        .args(args)
        .env(PINNED, &cpu)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(2, |c| c as u8)))
}

/// One workload, one pass, in this process.
fn run_here(spec: &Spec, opts: &Opts) -> ExitCode {
    let outcome = if opts.trace {
        trace::run_traced(spec, opts)
    } else {
        workloads::run_untraced(spec, opts)
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            // An engine error outside any counted operation: no result.
            eprintln!("cole-benchmark: {} failed: {e}", spec.name);
            return ExitCode::from(2);
        }
    };
    let env = env::fingerprint(&opts.out, opts.seed, opts.scale_name(), opts.seconds);
    if let Err(e) = report.write(&opts.out, opts.label.as_deref(), &env) {
        eprintln!(
            "cole-benchmark: cannot write under {}: {e}",
            opts.out.display()
        );
        return ExitCode::from(2);
    }
    report.print();
    if spec.pinned() {
        match std::env::var(PINNED) {
            Ok(cpu) => println!("# confined to CPU {cpu}"),
            Err(_) => println!(
                "# NOT confined to one CPU (taskset unavailable): expect noisier latencies"
            ),
        }
    }
    println!("{}", report.final_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cole-benchmark: {} of {} operations failed the oracle",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// Every (workload, pass) asked for, each in a process of its own.
fn run_each(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cole-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&Spec> = match cli.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for spec in specs {
        for &traced in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name])
                .args(["--seed", &cli.opts.seed.to_string()])
                .args(["--seconds", &cli.opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--scale", cli.opts.scale_name()])
                .arg("--out")
                .arg(&cli.opts.out)
                .stdout(Stdio::piped());
            if let Some(label) = &cli.opts.label {
                child.args(["--label", label]);
            }
            // `output` waits for the child to end before returning.
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("cole-benchmark: cannot start {}: {e}", spec.name);
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            let (body, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
            println!("{body}\n");
            all_ok &= output.status.success();
            results.push(
                Json::obj()
                    .set("workload", spec.name)
                    .set("traced", traced)
                    .set("exit_ok", output.status.success())
                    .set("result", Json::parse(last.trim()).unwrap_or(Json::Null)),
            );
        }
    }
    // This benchmark measures; it claims nothing.
    println!(
        "{}",
        Json::obj()
            .set("runs", results)
            .set("claim", Json::Null)
            .to_line()
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare::compare(a.as_ref(), b.as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cole-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cole-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (cli.workload, cli.trace) {
        (Some(spec), Some(traced)) => {
            if spec.pinned() && std::env::var_os(PINNED).is_none() {
                if let Some(code) = run_pinned(&args) {
                    return code;
                }
            }
            run_here(
                spec,
                &Opts {
                    trace: traced,
                    ..cli.opts.clone()
                },
            )
        }
        _ => run_each(&cli),
    }
}
