//! Output: the contract's one-line result, the human-readable report
//! before it, provenance, and `BENCHMARK.json` itself.

use std::fmt::Write as _;
use std::process::Command;

use crate::run::{Options, Outcome};
use crate::spec::{Better, COMMAND, END_TO_END, PATHS, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// `(name, unit, better)` of the metrics a mode reports.
pub fn metric_table(trace: bool) -> Vec<(&'static str, &'static str, Better)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }
}

fn quoted_list(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(", "))
}

/// `BENCHMARK.json`, from the tables in [`crate::spec`].
pub fn benchmark_json() -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"command\": {},", quoted_list(&COMMAND));
    let _ = writeln!(j, "  \"paths\": {},", quoted_list(&PATHS));
    let _ = writeln!(j, "  \"run_seconds\": {RUN_SECONDS},");
    j.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    j.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    j.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    j.push_str("  ]\n}\n");
    j
}

/// First line of a command's output, or `unknown` when it cannot run
/// (the driver's checkout is not a git repository).
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were made.
pub fn provenance(o: &Options) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload".into(), o.workload.name.into()),
        ("seed".into(), o.seed.to_string()),
        ("seconds".into(), o.seconds.to_string()),
        ("trace".into(), u8::from(o.trace).to_string()),
        (
            "comparable".into(),
            if o.quick {
                "no (--quick: tiny horizons, smoke test only)".into()
            } else {
                "yes".into()
            },
        ),
        (
            "git_commit".into(),
            first_line("git", &["rev-parse", "HEAD"]),
        ),
        ("rustc".into(), first_line("rustc", &["-V"])),
        ("host_cores".into(), cores.to_string()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug (not comparable)".into()
            } else {
                "release lto=true codegen-units=1".into()
            },
        ),
    ]
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit, _) in metric_table(trace) {
        let v = out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        parts.join(", ")
    ))
}

/// The human-readable report printed before the result line, also the
/// body of `out/result-*.json`.
pub fn full_json(prov: &[(String, String)], out: &Outcome, line: &str) -> String {
    let mut j = String::from("{\n  \"provenance\": {");
    for (i, (k, v)) in prov.iter().chain(out.info.iter()).enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(j, "{comma}\n    {}: {}", json_string(k), json_string(v));
    }
    let _ = write!(
        j,
        ",\n    \"sim_fingerprint\": \"{:016x}\"\n  }},\n  \"result\": {line}\n}}\n",
        out.fingerprint
    );
    j
}

pub fn print_report(prov: &[(String, String)], trace: bool, out: &Outcome) {
    for (k, v) in prov.iter().chain(out.info.iter()) {
        println!("# {k}: {v}");
    }
    println!("# sim_fingerprint: {:016x}", out.fingerprint);
    for (name, unit, better) in metric_table(trace) {
        if let Some(v) = out.metrics.get(name) {
            println!(
                "{name:<34} {v:>18.6} {unit:<10} ({} is better)",
                better.as_str()
            );
        }
    }
}
