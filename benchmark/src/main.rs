//! `npr-benchmark`: one command, one workload per process.
//!
//! ```text
//! npr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! npr-benchmark --list | --emit-spec
//! npr-benchmark            # every workload, both modes, one child process each
//! ```

use std::path::Path;
use std::process::{Command, ExitCode};

use npr_benchmark::report;
use npr_benchmark::run::{self, Options};
use npr_benchmark::spec::{self, RUN_SECONDS, WORKLOADS};

/// Default `--seed`.
const SEED: u64 = 2001;

fn usage() -> ExitCode {
    eprintln!(
        "usage: npr-benchmark [--workload <name>] [--seed N] [--seconds S] \
         [--trace 0|1] [--quick] [--list] [--emit-spec]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match a.as_str() {
            "--list" => {
                for w in &WORKLOADS {
                    println!("{:<18} {}", w.name, w.why);
                }
                return ExitCode::SUCCESS;
            }
            "--emit-spec" => {
                print!("{}", report::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--quick" => quick = true,
            "--workload" => match value().and_then(spec::workload) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => trace = false,
                Some("1") => trace = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return run_all(&args);
    };
    npr_benchmark::kernels::set_quick(quick);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let o = Options {
        workload,
        seed,
        seconds,
        trace,
        quick,
        par_threads: cores.min(2),
    };
    let out = if trace {
        run::traced(&o)
    } else {
        run::timed(&o)
    };
    if !out.failures.is_empty() {
        for f in &out.failures {
            eprintln!("{}: CORRECTNESS GATE FAILED: {f}", workload.name);
        }
        return ExitCode::FAILURE;
    }
    let line = match report::result_line(&out, trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let prov = report::provenance(&o);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let tag = format!("{}-trace{}", workload.name, u8::from(trace));
        std::fs::write(
            dir.join(format!("result-{tag}.json")),
            report::full_json(&prov, &out, &line),
        )?;
        match &out.trace_jsonl {
            Some(t) => std::fs::write(dir.join(format!("trace-{}.jsonl", workload.name)), t),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!(
            "{}: cannot write under {}: {e}",
            workload.name,
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    report::print_report(&prov, trace, &out);
    println!("{line}");
    ExitCode::SUCCESS
}

/// No `--workload`: every workload in both modes, each in a process of
/// its own so `peak_rss_mib` is per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {} --trace {trace}", w.name);
            let status = Command::new(&exe)
                .args(args)
                .args(["--workload", w.name, "--trace", trace])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
