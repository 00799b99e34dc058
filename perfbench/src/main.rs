//! Benchmark binary: `dlr-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-out <file>]`.
//!
//! Prints one info line (workload, curve, mode, seed, host fingerprint
//! handed over by `run.py` in `PERFBENCH_HOST`), the per-phase operation
//! counts, and as its last line the result JSON. Exits nonzero if any
//! output failed its check.

use dlr_perfbench::{result_json, run, trace, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("dlr-perfbench: {msg}");
    eprintln!("usage: dlr-perfbench --workload <ss512-device|toy-serve|toy-rotate> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-out <file>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let work_dir = work_dir.join(format!("{workload}-{}", std::process::id()));
    let opts = Opts {
        workload: workload.clone(),
        seed,
        seconds,
        trace: traced,
        work_dir,
        corrupt: None,
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("dlr-perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = std::env::var("PERFBENCH_HOST").unwrap_or_else(|_| "{}".into());
    let info = format!(
        "{{\"workload\": \"{workload}\", \"curve\": \"{}\", \"comm_mode\": \"Reuse\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \"host\": {host}}}",
        out.curve
    );
    println!("info: {info}");
    for (phase, ops) in &out.ops {
        println!("ops per decrypt in {phase}: {ops}");
    }
    for line in &out.log {
        println!("{line}");
    }
    for note in &out.tally.notes {
        println!("check failed: {note}");
    }
    if let Some(path) = trace_out.filter(|_| traced) {
        if let Err(e) = std::fs::write(&path, trace::to_json_lines(&info, &out.spans)) {
            eprintln!("dlr-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_json(&out, traced));
    if out.tally.failed == 0 && out.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
