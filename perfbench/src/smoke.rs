//! `--smoke`: checks that every workload and metric named in
//! `BENCHMARK.json` is emitted with its unit, that every check passes, and
//! that the seed argument changes the generated inputs deterministically.
//! Each workload runs one set-up and one operation, traced and untraced.

use crate::{campaign_mix, paper_sweep, run_workload, service_store, Config, WORKLOADS};
use std::process::ExitCode;
use tmr_fpga::tmr::json::{self, Json};

/// `(name, unit)` of every metric listed under `section`.
fn declared(benchmark: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let entries = benchmark
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json: no {section} list"))?;
    entries
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {section} entry without {key}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// The debug rendering of a workload's generated inputs.
fn inputs(workload: &str, seed: u64) -> String {
    match workload {
        "paper_sweep" => format!("{:?}", paper_sweep::inputs(seed)),
        "campaign_mix" => format!("{:?}", campaign_mix::inputs(seed)),
        _ => format!("{:?}", service_store::inputs(seed)),
    }
}

fn check() -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("cannot read BENCHMARK.json: {err}"))?;
    let benchmark = json::parse(&text)?;
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let mut problems = Vec::new();
    if workloads != WORKLOADS {
        problems.push(format!(
            "workloads {workloads:?}, benchmark runs {WORKLOADS:?}"
        ));
    }
    let sections = [
        declared(&benchmark, "end_to_end")?,
        declared(&benchmark, "per_layer")?,
    ];
    for workload in WORKLOADS {
        if inputs(workload, 7) != inputs(workload, 7) {
            problems.push(format!("{workload}: seed 7 gave two different inputs"));
        }
        if inputs(workload, 7) == inputs(workload, 8) {
            problems.push(format!("{workload}: seeds 7 and 8 gave the same inputs"));
        }
        for (trace, expected) in [false, true].into_iter().zip(&sections) {
            let config = Config {
                seed: 1,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let report = run_workload(workload, &config)?;
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.to_string()))
                .collect();
            if &emitted != expected {
                problems.push(format!(
                    "{workload} --trace {}: emitted {emitted:?}, declared {expected:?}",
                    u8::from(trace)
                ));
            }
            if report.failed > 0 {
                problems.push(format!(
                    "{workload} --trace {}: {} failed checks",
                    u8::from(trace),
                    report.failed
                ));
            }
        }
    }
    Ok(problems)
}

pub fn run() -> ExitCode {
    match check() {
        Ok(problems) if problems.is_empty() => {
            println!("smoke: ok");
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for problem in problems {
                eprintln!("smoke: {problem}");
            }
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("smoke: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_deterministically() {
        for workload in WORKLOADS {
            assert_eq!(inputs(workload, 3), inputs(workload, 3), "{workload}");
            assert_ne!(inputs(workload, 3), inputs(workload, 4), "{workload}");
        }
    }
}
