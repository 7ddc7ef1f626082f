//! The udma benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! udma-perfbench --workload <table1|ring_rdma|cluster_mesh> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds of the workload — set up, run, check — until
//! `--seconds` have passed, after one untimed warm-up round. Host-time
//! metrics are medians over the rounds; simulated metrics are
//! deterministic in the seed and must be bit-identical in every round.
//! The last line of standard output is the JSON result; a failed check
//! prints no result and exits with code 1. See README.md.

mod cluster_mesh;
mod layers;
mod ring_rdma;
mod round;
mod table1;
mod trace;

use round::{
    median, reference_crc_loop, reference_loop, thread_cpu_time, HostWork, Round, Workload,
    REFERENCE_NOMINAL,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Rounds a run measures at least, however long they take.
const MIN_ROUNDS: usize = 5;
/// Rounds of a traced run that record spans: every other round among the
/// first `2 * SPAN_ROUNDS`. The rest only time the calls, which bounds
/// the trace's memory and file size.
const SPAN_ROUNDS: u32 = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 120),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One round of `w`: set-up, run and verify, each timed from outside in
/// thread CPU time, and each the parent span of the calls it makes. The
/// reference loops run just before and after the run phase, to measure
/// the host's speed.
fn round<W: Workload>(w: &W, seed: u64, tr: &mut Tracer) -> Result<Round, String> {
    let (open, t0) = (tr.begin("setup", 0), thread_cpu_time());
    let mut world = w.setup(seed, tr)?;
    let setup = thread_cpu_time() - t0;
    tr.end(open);
    let (before, before_crc) = (reference_loop(), reference_crc_loop());
    let (open, t0) = (tr.begin("run", 0), thread_cpu_time());
    w.run(&mut world, tr)?;
    let run = thread_cpu_time() - t0;
    tr.end(open);
    let (after, after_crc) = (reference_loop(), reference_crc_loop());
    let (open, t0) = (tr.begin("verify", 0), thread_cpu_time());
    let mut r = w.verify(world, tr)?;
    r.verify = thread_cpu_time() - t0;
    tr.end(open);
    r.setup = setup;
    r.run = run;
    r.reference = (before + after) / 2;
    r.reference_crc = (before_crc + after_crc) / 2;
    Ok(r)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    match args.workload.as_str() {
        "table1" => measure(&table1::Table1, &args),
        "ring_rdma" => measure(&ring_rdma::RingRdma, &args),
        "cluster_mesh" => measure(&cluster_mesh::ClusterMesh, &args),
        other => Err(format!("unknown workload {other:?} (table1, ring_rdma, cluster_mesh)")),
    }
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new();

    // Warm-up: lazy set-up and allocator growth happen here, untimed. Its
    // simulated outcome is the reference every later round must repeat.
    tr.start_round(0, false);
    let warmup = round(w, args.seed, &mut tr)?;
    // Every later round builds the same world, so this is the workload's
    // peak; read now, it leaves out the bookkeeping of a run's rounds.
    let peak_rss = peak_rss_mb()?;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<(Round, Duration)> = Vec::new();
    let mut traced: Vec<(Round, Duration)> = Vec::new();
    let mut index = 1u32;
    while plain.len() + traced.len() < MIN_ROUNDS || Instant::now() < deadline {
        // The traced run alternates rounds with and without spans, so the
        // tracing overhead is measured under the same conditions.
        let on = args.trace && index <= 2 * SPAN_ROUNDS && index.is_multiple_of(2);
        tr.start_round(index, on);
        let t0 = Instant::now();
        let mut r = round(w, args.seed, &mut tr)?;
        let wall = t0.elapsed();
        if let Some(what) = r.first_divergence(&warmup) {
            let mode = if on { "traced" } else { "untraced" };
            return Err(format!("determinism gate: {mode} round {index} differs in {what}"));
        }
        // Keep only what the metrics need, so memory does not grow with the
        // number of rounds: the simulated outcome equals the warm-up's.
        r.sim.clear();
        r.counters.clear();
        if args.trace {
            r.host.insert("core.build_host_s", r.setup.as_secs_f64());
            r.host.insert("core.run_host_s", r.run.as_secs_f64());
        } else {
            r.host.clear();
        }
        if on {
            traced.push((r, wall))
        } else {
            plain.push((r, wall))
        }
        index += 1;
    }
    if args.trace && traced.is_empty() {
        return Err("no traced round completed".to_string());
    }

    // Simulated Table 1 rows from the library's own harness at the same
    // iteration count: a gate on `table1`, the reported rows elsewhere.
    let mut sim = warmup.sim.clone();
    for (name, value) in table1::reference(table1::iters_for(args.seed)) {
        match sim.insert(name, value) {
            Some(v) if v.to_bits() != value.to_bits() => {
                return Err(format!(
                    "reference gate: {name} = {v} but measure_initiation gives {value}"
                ));
            }
            _ => {}
        }
    }

    let measured: Vec<&Round> = plain.iter().chain(&traced).map(|(r, _)| r).collect();
    // The seed's operations, counted once: every measured round repeats
    // the warm-up's outcome (the determinism gate above), so the counts
    // depend on the seed alone and not on how many rounds fit the run.
    let (attempted, failed) = (warmup.attempted, warmup.attempted - warmup.completed);
    // How much slower than nominal the host ran during this run, from the
    // median of each reference loop's times. One factor per run and loop:
    // single 1 ms samples jitter more than the drift they track.
    let slowdown_of = |f: &dyn Fn(&Round) -> Duration| {
        median(&measured.iter().map(|r| f(r).as_secs_f64()).collect::<Vec<_>>())
            / REFERENCE_NOMINAL.as_secs_f64()
    };
    let slowdown = slowdown_of(&|r| r.reference);
    let slowdown_crc = slowdown_of(&|r| r.reference_crc);
    let verify_slowdown = match w.verify_work() {
        HostWork::Maps => slowdown,
        HostWork::Crc => slowdown_crc,
    };
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        for (name, _) in layers::PER_LAYER {
            let host: Vec<f64> =
                traced.iter().filter_map(|(r, _)| r.host.get(name).copied()).collect();
            let value = match warmup.counters.get(name) {
                Some(v) => *v,
                None if host.is_empty() => 0.0,
                None => median(&host),
            };
            metrics.insert(name, value);
        }
        let wall = |rs: &[(Round, Duration)]| {
            median(&rs.iter().map(|(_, w)| w.as_secs_f64()).collect::<Vec<_>>())
        };
        metrics.insert("trace.overhead_ms", (wall(&traced) - wall(&plain)) * 1e3);
        report_spans(&tr, args)?;
    } else {
        if args.workload == "table1" {
            let (p50, p99) = table1::latency_probe(args.seed);
            sim.insert("sim_xfer_p50_us", p50);
            sim.insert("sim_xfer_p99_us", p99);
        }
        let rounds: Vec<&Round> = plain.iter().map(|(r, _)| r).collect();
        let med =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
        metrics.insert(
            "sim_ops_per_host_s",
            med(&|r| r.completed as f64 / r.run.as_secs_f64()) * slowdown,
        );
        metrics.insert("setup_s", med(&|r| r.setup.as_secs_f64()) / slowdown);
        metrics.insert("verify_s", med(&|r| r.verify.as_secs_f64()) / verify_slowdown);
        metrics.insert("peak_rss_mb", peak_rss);
        metrics.extend(sim);
    }

    let catalogue = if args.trace { layers::PER_LAYER } else { layers::END_TO_END };
    let mut out = String::new();
    for (name, unit) in catalogue {
        let value = *metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if !args.trace && value == 0.0 {
            return Err(format!("end-to-end metric {name} reads 0"));
        }
        let sep = if out.is_empty() { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }

    println!(
        "RUN_RECORD {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {}, \
         \"host_slowdown\": {slowdown:.4}, \"host_slowdown_crc\": {slowdown_crc:.4}, \
         \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measured.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string())),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())),
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{out}}}}}"
    ))
}

/// Prints self time per span name to stderr and writes every span as a
/// JSON line under `perfbench/out/`.
fn report_spans(tr: &Tracer, args: &Args) -> Result<(), String> {
    eprintln!("{:<40} {:>8} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, self_ns)) in tr.self_times() {
        eprintln!(
            "{name:<40} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tr.json_lines()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}
