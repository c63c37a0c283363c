//! Host and build stamp printed with every result, so that results from
//! different machines, thread counts or kernel tiers are never compared
//! by accident.

use std::fs;

/// First `model name` in `/proc/cpuinfo`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, read from `.git` in the working directory
/// only (never from a parent directory); `unknown` outside a clone.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    fs::read_to_string(format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .ok()
        .or_else(|| {
            fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
    })
}

/// One `key=value` line describing where and how this result was made.
pub fn stamp(workload: &str, codec: &str, seed: u64, workload_seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "stamp: workload={workload} cpu=\"{}\" nproc={nproc} pool_threads={} tier={} codec={codec} \
         seed={seed} workload_seed={workload_seed} trace={} commit={}",
        cpu_model(),
        rayon::current_num_threads(),
        fedhisyn_tensor::active_tier().name(),
        u8::from(trace),
        git_commit(),
    )
}
