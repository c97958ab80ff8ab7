//! Front-door benchmark of the WarpDrive reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|ycsb|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Repeats passes of the workload for `--seconds`, checks every
//! response against a sequential map, and prints one JSON object as the
//! last line of standard output: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod bulk;
mod oracle;
mod pass;
mod serve;
mod span;
mod stats;
mod ycsb;

use pass::Pass;
use span::Tracer;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment variables the library reads at construction; any of them
/// would change what is measured.
const PINNED_PREFIXES: [&str; 4] = ["WD_SCHED_", "WD_FAULT", "WD_SANITIZE", "WD_RESIZE_"];

/// Passes stop being started after this long, whatever `--seconds` says.
const HARD_STOP: Duration = Duration::from_secs(120);

/// End-to-end metrics: name, unit, and the clock (or meter) behind it.
/// `host_ops_s` is reported per layer: on a shared host its run-to-run
/// spread is as wide as the largest bound an end-to-end metric may have.
const END_TO_END: [(&str, &str, &str); 7] = [
    ("modeled_ops_s", "1/s", " (modeled clock)"),
    ("setup_s", "s", " (host wall clock)"),
    ("host_peak_rss_mb", "MB", " (host memory)"),
    ("p50_us", "us", " (modeled clock)"),
    ("p99_us", "us", " (modeled clock)"),
    ("p99_us.r100k", "us", " (modeled clock)"),
    ("sustained_ops_s", "1/s", " (modeled clock)"),
];

const PER_LAYER: [(&str, &str); 50] = [
    ("host_ops_s", "1/s"),
    ("serve.flushes", "count"),
    ("serve.mean_batch", "ops"),
    ("serve.delay_flushes", "count"),
    ("serve.size_flushes", "count"),
    ("serve.rejects", "count"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.lateness_max_us", "us"),
    ("serve.backlog_end_us", "us"),
    ("serve.r100k.queue_wait_p99_us", "us"),
    ("serve.r100k.lateness_max_us", "us"),
    ("serve.r100k.backlog_end_us", "us"),
    ("serve.host_self_s", "s"),
    ("execute.calls", "count"),
    ("execute.modeled_s", "s"),
    ("execute.host_s", "s"),
    ("batch.host_s", "s"),
    ("client.host_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.write_updates", "count"),
    ("cascade.h2d_s", "s"),
    ("cascade.multisplit_s", "s"),
    ("cascade.transpose_s", "s"),
    ("cascade.kernel_s", "s"),
    ("cascade.transpose_back_s", "s"),
    ("cascade.scatter_s", "s"),
    ("cascade.d2h_s", "s"),
    ("cascade.backoff_s", "s"),
    ("cascade.overhead_s", "s"),
    ("interconnect.transpose_bytes", "bytes"),
    ("interconnect.pcie_bytes", "bytes"),
    ("gpu.launches", "count"),
    ("gpu.launches_per_op", "ratio"),
    ("gpu.sim_s", "s"),
    ("gpu.transactions_per_op", "ratio"),
    ("gpu.cas_ops", "count"),
    ("gpu.cas_failed", "count"),
    ("gpu.group_steps_per_op", "ratio"),
    ("gpu.imbalance", "ratio"),
    ("gpu.mem_bytes", "bytes"),
    ("gpu.host_us_per_launch", "us"),
    ("workloads.gen_s", "s"),
    ("trace.host_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.reconcile_err", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["bulk", "ycsb", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (bulk, ycsb, serve)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Pins the simulator to one worker thread. With several, lanes of one
/// launch race on real threads, so CAS outcomes — and the probe counts
/// the modeled time is computed from — vary from run to run; with one,
/// every modeled number is a function of the seed alone.
fn pin_one_thread() -> Result<(), String> {
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) if v.trim() != "1" => Err(format!(
            "RAYON_NUM_THREADS={v}: the benchmark runs the simulator on one thread"
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            // no other thread exists yet, so nothing can read the
            // environment concurrently
            std::env::set_var("RAYON_NUM_THREADS", "1");
            Ok(())
        }
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn run_pass(workload: &str, seed: u64, tracer: &Tracer) -> Pass {
    match workload {
        "bulk" => bulk::pass(seed, tracer),
        "ycsb" => ycsb::pass(seed, tracer),
        _ => serve::pass(seed, tracer),
    }
}

/// Host self time per layer of a traced pass.
fn host_layers(rec: &span::Recorder) -> Vec<(&'static str, f64)> {
    let mut client = 0.0;
    let mut serve = 0.0;
    let mut execute = 0.0;
    let mut batch = 0.0;
    for (name, t) in rec.self_times() {
        match name {
            "submit_at" | "drain" => serve += t,
            "execute" => execute += t,
            "batch" => batch += t,
            _ => client += t,
        }
    }
    vec![
        ("client.host_s", client),
        ("serve.host_self_s", serve),
        ("execute.host_s", execute),
        ("batch.host_s", batch),
    ]
}

/// |Σ layer self times − pass host time| ÷ pass host time.
fn reconcile_err(rec: &span::Recorder, host_s: f64) -> f64 {
    let sum: f64 = host_layers(rec).iter().map(|(_, s)| s).sum();
    (sum - host_s).abs() / host_s
}

fn same_bits(a: &[(&str, f64)], b: &[(&str, f64)]) -> Option<String> {
    for (name, x) in a {
        if let Some((_, y)) = b.iter().find(|(n, _)| n == name) {
            if x.to_bits() != y.to_bits() {
                return Some(format!("{name}: {x} vs {y}"));
            }
        }
    }
    None
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| PINNED_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure the default configuration",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = pin_one_thread() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} sim_threads=1 client_threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let budget = Duration::from_secs(args.seconds);
    let min_passes = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut correct = true;
    // (pass, traced); only the first traced pass keeps its spans
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let mut first_trace: Option<Tracer> = None;
    // later passes may reuse or keep memory freed by earlier ones, so the
    // footprint is read after the first
    let mut peak_rss = None;
    while passes.len() < min_passes || start.elapsed() < budget {
        if start.elapsed() > HARD_STOP && !passes.is_empty() {
            break;
        }
        // traced runs alternate untraced and traced passes, untraced first
        let traced = args.trace && passes.len() % 2 == 1;
        let tracer = if traced {
            Tracer::on()
        } else {
            Tracer::default()
        };
        let i = passes.len();
        let mut p = run_pass(&args.workload, args.seed, &tracer);
        p.oracle.release();
        println!(
            "# pass {i} traced={} setup_s={:.4} host_s={:.4} ops={} oracle_checked={} mismatches={}",
            u8::from(traced),
            p.setup_s,
            p.host_s,
            p.ops,
            p.oracle.checked(),
            p.oracle.mismatches()
        );
        if p.oracle.mismatches() > 0 || p.oracle.checked() == 0 {
            correct = false;
            println!(
                "# pass {i}: {} of {} responses mismatch the sequential map, first: {}",
                p.oracle.mismatches(),
                p.oracle.checked(),
                p.oracle.first_mismatch().unwrap_or("-")
            );
        }
        // modeled numbers repeat bit for bit, traced or not
        if let Some((first, _)) = passes.first() {
            let diff = same_bits(&first.modeled, &p.modeled)
                .or_else(|| same_bits(&first.layers, &p.layers))
                .or_else(|| same_bits(&first.gpu.metrics(first.ops), &p.gpu.metrics(p.ops)));
            if let Some(d) = diff {
                correct = false;
                println!("# pass {i}: modeled number differs from pass 0: {d}");
            }
        }
        if let Some(err) = tracer.with(|r| reconcile_err(r, p.host_s)) {
            if err > 0.01 {
                correct = false;
                println!("# pass {i}: layer self times miss the pass host time by {err:.4}");
            }
            first_trace.get_or_insert(tracer);
        }
        passes.push((p, traced));
        peak_rss = peak_rss.or_else(peak_rss_mb);
    }

    let first = &passes[0].0;
    let attempted: u64 = passes.iter().map(|(p, _)| p.attempted).sum();
    let failed: u64 = passes.iter().map(|(p, _)| p.failed).sum();
    let untraced: Vec<&Pass> = passes
        .iter()
        .filter(|(_, traced)| !traced)
        .map(|(p, _)| p)
        .collect();
    let host_s = median(&untraced.iter().map(|p| p.host_s).collect::<Vec<_>>());
    let host_ops_s = first.ops as f64 / host_s;
    println!("# host_ops_s = {host_ops_s} 1/s (host wall clock, median of untraced passes)");
    let mut metrics: Vec<(&str, f64)> = vec![("host_ops_s", host_ops_s)];
    if args.trace {
        let traced: Vec<&Pass> = passes
            .iter()
            .filter(|(_, traced)| *traced)
            .map(|(p, _)| p)
            .collect();
        let traced_host = median(&traced.iter().map(|p| p.host_s).collect::<Vec<_>>());
        let tp = traced[0];
        let tt = first_trace.expect("a traced run has a traced pass");
        metrics.extend(tp.layers.iter().copied());
        metrics.extend(tp.gpu.metrics(tp.ops));
        let (layers, spans, root) = tt
            .with(|r| (host_layers(r), r.len(), r.root_host_s()))
            .expect("traced pass has a recorder");
        let sum: f64 = layers.iter().map(|(_, s)| s).sum();
        for (name, s) in &layers {
            println!("# layer {name} self {s:.6} s ({:.1} %)", 100.0 * s / sum);
        }
        metrics.extend(layers);
        metrics.extend([
            (
                "gpu.host_us_per_launch",
                host_s / first.gpu.launches.max(1) as f64 * 1e6,
            ),
            (
                "workloads.gen_s",
                median(&untraced.iter().map(|p| p.gen_s).collect::<Vec<_>>()),
            ),
            ("trace.host_s", tp.host_s),
            ("trace.overhead", traced_host / host_s),
            ("trace.reconcile_err", (sum - tp.host_s).abs() / tp.host_s),
        ]);
        println!(
            "# {spans} spans over {} traced pass(es); root {root:.6} s, self-time sum {sum:.6} s, \
             pass host {:.6} s, untraced pass host median {host_s:.6} s",
            traced.len(),
            tp.host_s
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tt.with(|r| span::dump(r, &path)) {
            Some(Ok(())) => println!("# spans written to {}", path.display()),
            Some(Err(e)) => println!("# spans not written: {e}"),
            None => {}
        }
    } else {
        metrics.extend(first.modeled.iter().copied());
        metrics.extend([
            (
                "setup_s",
                median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
            ),
            ("host_peak_rss_mb", peak_rss.unwrap_or(f64::NAN)),
        ]);
    }

    let wanted: Vec<(&str, &str, &str)> = if args.trace {
        // the clock of each per-layer metric is in its name and the notes
        PER_LAYER.iter().map(|&(n, u)| (n, u, "")).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit, clock) in wanted {
        // a layer the workload does not cross did no work: 0
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        if !value.is_finite() {
            correct = false;
            println!("# metric {name} is not a number");
        }
        println!("# {name} = {value} {unit}{clock}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
