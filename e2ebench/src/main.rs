//! End-to-end and per-layer benchmark of the secureTF pipelines.
//!
//! ```text
//! e2ebench --workload <cold_start|serve_mnist|train_fig8|checkpoint_io>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload puts most of its work on a different layer (see
//! `README.md` next to this crate). A run sets the workload up several
//! times (`setup_s` is the median), then runs its timed phase for
//! `--seconds` of wall time. The timed phase opens with a fixed number of
//! ops, the *virtual sample*, whose virtual-time latencies are a pure
//! function of the seed; wall-clock rates come from the whole phase.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload once untraced and once with bench-side spans around every
//! public call plus the program's telemetry registry, prints the
//! per-layer table, the calibration table and the prediction checks,
//! and prints the per-layer metrics. The last stdout line is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod checkpoint_io;
mod cold_start;
mod counters;
mod serve_mnist;
mod stats;
mod trace;
mod train_fig8;

use calibrate::Calibration;
use counters::{hist_percentile_ns, Counters};
use securetf_tee::Telemetry;
use stats::{median, percentile, tail, ProcSample};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{LayerTotal, Tracer};

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Virtual latency of the op in nanoseconds.
    pub virt_ns: u64,
    /// Virtual instant the op completed (the workload's clock).
    pub end_ns: u64,
    /// Whether the op succeeded and its output matched the reference.
    pub ok: bool,
}

/// Per-layer wall spans of a traced phase, by span name.
pub type Layers = BTreeMap<&'static str, LayerTotal>;

/// A benchmark workload: set-up, then a loop of steps that each complete
/// zero or more ops.
pub trait Workload: Sized {
    /// Ops in the virtual sample that opens the timed phase.
    const SAMPLE: usize;
    /// Ops per wall-throughput window; `wall_ops_per_s` is the median
    /// window rate.
    const WINDOW: usize;
    /// Set-ups per untraced run; `setup_s` reports their median.
    const SETUP_REPS: usize = 5;

    /// Builds the workload from its seed. `traced` enables the program's
    /// telemetry registry; `tr` times set-up calls.
    fn setup(seed: u64, traced: bool, tr: &mut Tracer) -> Result<Self, String>;

    /// Runs one step of the timed phase, appending every op it completed.
    fn step(&mut self, tr: &mut Tracer, done: &mut Vec<Done>);

    /// The program's telemetry handle (disabled when untraced).
    fn telemetry(&self) -> &Telemetry;

    /// Ops per virtual second over the virtual sample.
    fn virt_ops_per_s(&self, sample: &[Done]) -> f64 {
        let ns: u64 = sample.iter().map(|d| d.virt_ns).sum();
        sample.len() as f64 / (ns.max(1) as f64 / 1e9)
    }

    /// Deterministic workload state folded into the repeat digest.
    fn fingerprint(&self) -> u64 {
        0
    }

    /// Bench-side per-layer values the telemetry registry does not hold.
    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Checks the traced split against the predictions table. Returns a
    /// one-line verdict and whether the predicted split held.
    fn split_check(
        &self,
        layers: &Layers,
        root_ns: u64,
        ops: u64,
        cal: &Calibration,
    ) -> (String, bool);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("missing or bad --seconds")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "cold_start" => run::<cold_start::ColdStart>(&args),
        "serve_mnist" => run::<serve_mnist::ServeMnist>(&args),
        "train_fig8" => run::<train_fig8::TrainFig8>(&args),
        "checkpoint_io" => run::<checkpoint_io::CheckpointIo>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// What one timed phase measured.
struct Phase {
    done: Vec<Done>,
    /// `(wall ns, ops)` per wall-throughput window.
    windows: Vec<(u64, usize)>,
    /// Ops completed when the virtual sample closed, and the registry
    /// growth over those ops.
    sample_ops: usize,
    /// Steps run when the virtual sample closed.
    sample_steps: u64,
    before: Counters,
    at_sample: Counters,
    /// Process high-water RSS when the virtual sample closed, MiB.
    rss_at_sample_mb: f64,
    minflt: u64,
    sys_share: f64,
}

impl Phase {
    fn virt(&self, w: &impl Workload) -> VirtSummary {
        let sample = &self.done[..self.sample_ops.min(self.done.len())];
        let lat: Vec<f64> = sample.iter().map(|d| d.virt_ns as f64 / 1e6).collect();
        VirtSummary {
            n: sample.len(),
            p50_ms: median(&lat),
            tail_ms: tail(&lat),
            ops_per_s: w.virt_ops_per_s(sample),
        }
    }

    fn per_op_wall_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|&(ns, ops)| ns as f64 / 1e6 / ops as f64)
            .collect()
    }

    fn window_rates(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|&(ns, ops)| ops as f64 / (ns as f64 / 1e9))
            .collect()
    }

    fn wall_ops_per_s(&self) -> f64 {
        median(&self.window_rates())
    }

    fn failed(&self) -> u64 {
        self.done.iter().filter(|d| !d.ok).count() as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct VirtSummary {
    n: usize,
    p50_ms: f64,
    tail_ms: f64,
    ops_per_s: f64,
}

fn run_phase<W: Workload>(w: &mut W, seconds: f64, tr: &mut Tracer) -> Phase {
    let before = if tr.enabled() {
        Counters::take(w.telemetry())
    } else {
        Counters::default()
    };
    let mut done = Vec::new();
    let mut windows = Vec::new();
    let mut window = (0u64, 0usize);
    let mut sample: Option<(usize, u64, Counters, f64)> = None;
    let proc0 = ProcSample::now();
    let start = Instant::now();
    let mut op = 0u64;
    loop {
        tr.set_op(op);
        op += 1;
        let root = tr.enter("op");
        let t = Instant::now();
        let n0 = done.len();
        w.step(tr, &mut done);
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit(root);
        window.0 += ns;
        window.1 += done.len() - n0;
        if window.1 >= W::WINDOW {
            windows.push(window);
            window = (0, 0);
        }
        if sample.is_none() && done.len() >= W::SAMPLE {
            let counters = if tr.enabled() {
                Counters::take(w.telemetry())
            } else {
                Counters::default()
            };
            sample = Some((done.len(), op, counters, stats::peak_rss_mb()));
        }
        if sample.is_some() && !windows.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (minflt, sys_share) = ProcSample::now().since(&proc0);
    let (sample_ops, sample_steps, at_sample, rss_at_sample_mb) =
        sample.expect("loop ends after the sample");
    Phase {
        done,
        windows,
        sample_ops,
        sample_steps,
        before,
        at_sample,
        rss_at_sample_mb,
        minflt,
        sys_share,
    }
}

/// FNV-1a over the virtual sample and the workload fingerprint: equal
/// digests mean bit-identical virtual results.
fn virt_digest(phase: &Phase, fingerprint: u64, extra: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for d in &phase.done[..phase.sample_ops] {
        eat(d.virt_ns);
        eat(d.end_ns);
        eat(u64::from(d.ok));
    }
    eat(fingerprint);
    for &v in extra {
        eat(v);
    }
    h
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        return run_traced::<W>(args);
    }
    let mut off = Tracer::new(false);
    let mut setups = Vec::with_capacity(W::SETUP_REPS);
    let mut workload = None;
    for _ in 0..W::SETUP_REPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(args.seed, false, &mut off)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let phase = run_phase(&mut w, args.seconds, &mut off);
    let virt = phase.virt(&w);
    let attempted = phase.done.len() as u64;
    let failed = phase.failed();
    let walls = phase.per_op_wall_ms();
    println!("setup_s runs: {setups:?}");
    println!(
        "ops: attempted={attempted} succeeded={} failed={failed}; wall windows={} of >= {} ops",
        attempted - failed,
        phase.windows.len(),
        W::WINDOW
    );
    println!(
        "virtual sample: n={} p50={:.4} ms tail({})={:.4} ms ops/s={:.3}",
        virt.n,
        virt.p50_ms,
        if virt.n >= 1000 { "p99" } else { "max" },
        virt.tail_ms,
        virt.ops_per_s
    );
    println!(
        "proc: minflt_per_op={:.1} sys_cpu_share={:.3} op_wall_p50={:.3} ms p90={:.3} ms",
        phase.minflt as f64 / attempted as f64,
        phase.sys_share,
        median(&walls),
        percentile(&walls, 90.0)
    );
    let rates = phase.window_rates();
    println!(
        "wall window rates (ops/s): min={:.3} p25={:.3} median={:.3} p75={:.3} max={:.3}; in order: {:?}",
        percentile(&rates, 0.0),
        percentile(&rates, 25.0),
        median(&rates),
        percentile(&rates, 75.0),
        percentile(&rates, 100.0),
        rates.iter().map(|r| (r * 10.0).round() / 10.0).collect::<Vec<_>>()
    );
    let rss_end = stats::peak_rss_mb();
    println!(
        "rss: peak {:.1} MiB when the virtual sample closed, {rss_end:.1} MiB at the end ({:.1} KiB per op after the sample)",
        phase.rss_at_sample_mb,
        (rss_end - phase.rss_at_sample_mb) * 1024.0 / (attempted as f64 - phase.sample_ops as f64).max(1.0)
    );
    println!(
        "virt_digest={:016x}",
        virt_digest(&phase, w.fingerprint(), &[])
    );
    // Wall throughput is printed, not gated: see README.md, "Wall-clock
    // noise".
    println!("wall_ops_per_s={}", phase.wall_ops_per_s());
    let metrics = [
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", phase.rss_at_sample_mb, "MiB"),
        ("virt_op_p50_ms", virt.p50_ms, "ms"),
        ("virt_op_p99_ms", virt.tail_ms, "ms"),
        ("virt_ops_per_s", virt.ops_per_s, "1/s"),
    ];
    Ok(json_result(failed == 0, attempted, failed, &metrics))
}

fn run_traced<W: Workload>(args: &Args) -> Result<String, String> {
    // Untraced reference pass: the overhead base and the first half of
    // the same-seed repeat check.
    let mut off = Tracer::new(false);
    let mut plain = W::setup(args.seed, false, &mut off)?;
    let base = run_phase(&mut plain, args.seconds, &mut off);
    let base_virt = base.virt(&plain);
    let base_fp = plain.fingerprint();
    drop(plain);

    let mut setup_tr = Tracer::new(true);
    let mut w = W::setup(args.seed, true, &mut setup_tr)?;
    let mut tr = Tracer::new(true);
    let phase = run_phase(&mut w, args.seconds, &mut tr);
    let virt = phase.virt(&w);
    let repeat_ok = virt == base_virt && w.fingerprint() == base_fp;
    println!(
        "same-seed repeat (untraced vs traced pass): virtual sample {}",
        if repeat_ok {
            "bit-identical"
        } else {
            "DIFFERS"
        }
    );

    let cal = calibrate::run(args.seed);
    let layers = tr.layers();
    let root_ns = tr.root_total_ns();
    let ops = phase.done.len() as u64;
    print_layer_table(&layers, root_ns, ops);
    let (verdict, split_ok) = w.split_check(&layers, root_ns, ops, &cal);
    println!(
        "split check: {} — {verdict}",
        if split_ok { "holds" } else { "NOT MET" }
    );

    let base_walls = base.per_op_wall_ms();
    let walls = phase.per_op_wall_ms();
    let overhead = median(&walls) / median(&base_walls) - 1.0;
    println!(
        "tracing overhead: per-op wall p50 {:.3} ms traced vs {:.3} ms untraced ({:+.1}%)",
        median(&walls),
        median(&base_walls),
        overhead * 100.0
    );

    let mut m = layer_metrics(&phase, &setup_tr, &tr, &cal);
    m.insert(
        "proc.minflt_per_op",
        base.minflt as f64 / base.done.len() as f64,
    );
    m.insert("proc.sys_cpu_share", base.sys_share);
    m.insert("proc.wall_ops_per_s", base.wall_ops_per_s());
    m.insert("proc.op_wall_p50_ms", median(&base_walls));
    m.insert("proc.op_wall_p90_ms", percentile(&base_walls, 90.0));
    m.insert("proc.tracing_overhead_share", overhead);
    for (name, v) in w.extra_metrics() {
        m.insert(name, v);
    }
    let counts: Vec<u64> = m
        .iter()
        .filter(|(name, _)| is_deterministic(name))
        .map(|(_, v)| v.to_bits())
        .collect();
    println!(
        "virt_digest={:016x} layer_count_digest={:016x}",
        virt_digest(&phase, w.fingerprint(), &[]),
        virt_digest(&phase, w.fingerprint(), &counts)
    );
    println!("per-layer metrics:");
    for (name, v) in &m {
        println!("  {name:<40} {v}");
    }
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let failed = phase.failed() + base.failed();
    let attempted = (phase.done.len() + base.done.len()) as u64;
    Ok(json_result(
        failed == 0 && repeat_ok,
        attempted,
        failed,
        &metrics,
    ))
}

fn print_layer_table(layers: &Layers, root_ns: u64, ops: u64) {
    println!("per-layer wall self time over {ops} ops (traced pass):");
    println!(
        "  {:<26} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls", "self ms", "self ms/op", "share"
    );
    let mut sum = 0u64;
    for (name, l) in layers {
        sum += l.self_ns;
        println!(
            "  {name:<26} {:>9} {:>12.3} {:>12.4} {:>6.1}%",
            l.calls,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6 / ops.max(1) as f64,
            l.self_ns as f64 / root_ns.max(1) as f64 * 100.0
        );
    }
    println!(
        "  {:<26} {:>9} {:>12.3} {:>12.4} (op wall total {:.3} ms)",
        "sum of self times",
        "",
        sum as f64 / 1e6,
        sum as f64 / 1e6 / ops.max(1) as f64,
        root_ns as f64 / 1e6
    );
}

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("proc.minflt_per_op", "count"),
    ("proc.sys_cpu_share", "ratio"),
    ("proc.wall_ops_per_s", "1/s"),
    ("proc.op_wall_p50_ms", "ms"),
    ("proc.op_wall_p90_ms", "ms"),
    ("proc.tracing_overhead_share", "ratio"),
    ("core.publish_wall_ms", "ms"),
    ("core.deploy_wall_ms", "ms"),
    ("core.classify_wall_ms", "ms"),
    ("core.serving.encode_us", "us"),
    ("core.serving.decode_us", "us"),
    ("compiler.nodes_fused", "count"),
    ("compiler.nodes_eliminated", "count"),
    ("memory.peak_planned_bytes", "bytes"),
    ("kernel.matmul.virt_ms_per_op", "ms"),
    ("kernel.conv2d.virt_ms_per_op", "ms"),
    ("kernel.other.virt_ms_per_op", "ms"),
    ("kernel.pool.critical_share", "ratio"),
    ("crypto.bytes_sealed_per_op", "bytes"),
    ("crypto.bytes_opened_per_op", "bytes"),
    ("crypto.virt_ms_per_op", "ms"),
    ("crypto.sha256_bulk_mb_s", "MB/s"),
    ("crypto.open_bulk_mb_s", "MB/s"),
    ("crypto.seal_bulk_mb_s", "MB/s"),
    ("crypto.seal_64k_mb_s", "MB/s"),
    ("crypto.seal_3k_mb_s", "MB/s"),
    ("tee.epc.faults_per_op", "count"),
    ("tee.epc.evictions_per_op", "count"),
    ("tee.paging_virt_ms_per_op", "ms"),
    ("tee.transitions_per_op", "count"),
    ("tee.syscalls_virt_ms_per_op", "ms"),
    ("cas.attestations_per_op", "count"),
    ("cas.attest_virt_ms_per_op", "ms"),
    ("shield.fs.write_wall_ms", "ms"),
    ("shield.fs.read_wall_ms", "ms"),
    ("shield.fs.range_read_wall_ms", "ms"),
    ("shield.fs.recover_wall_ms", "ms"),
    ("shield.fs.write_mb_s", "MB/s"),
    ("shield.fs.read_mb_s", "MB/s"),
    ("shield.fs.journal_commits_per_op", "count"),
    ("shield.fs.chunk_cache_hit_rate", "ratio"),
    ("shield.net.send_wall_us", "us"),
    ("shield.net.recv_wall_us", "us"),
    ("shield.net.records_per_op", "count"),
    ("shield.net.bytes_per_op", "bytes"),
    ("shield.net.virt_ms_per_op", "ms"),
    ("shield.net.record_3k_mb_s", "MB/s"),
    ("gateway.pump_wall_us", "us"),
    ("gateway.batch_size_mean", "count"),
    ("gateway.queue_wait_virt_p50_ms", "ms"),
    ("gateway.queue_wait_virt_p99_ms", "ms"),
    ("gateway.shed", "count"),
    ("gateway.deadline_miss", "count"),
    ("gateway.generator_late_max_ms", "ms"),
    ("distrib.step_wall_ms", "ms"),
    ("distrib.checkpoint_wall_ms", "ms"),
    ("distrib.comm.bytes_per_step", "bytes"),
    ("distrib.comm.exposed_virt_ms_per_step", "ms"),
    ("distrib.comm.hidden_virt_ms_per_step", "ms"),
];

/// Per-layer metrics that are counts or virtual time, hence repeatable.
fn is_deterministic(name: &str) -> bool {
    !(name.starts_with("proc.")
        || name.contains("wall")
        || name.contains("_mb_s")
        || name.ends_with("_us"))
}

fn mean_ms(layers: &Layers, name: &str) -> f64 {
    layers
        .get(name)
        .map_or(0.0, |l| l.total_ns as f64 / 1e6 / l.calls.max(1) as f64)
}

fn mb_s(bytes: u64, layers: &Layers, names: &[&str]) -> f64 {
    let ns: u64 = names
        .iter()
        .filter_map(|n| layers.get(n))
        .map(|l| l.total_ns)
        .sum();
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / (ns as f64 / 1e9) / 1e6
    }
}

fn layer_metrics(
    phase: &Phase,
    setup_tr: &Tracer,
    tr: &Tracer,
    cal: &Calibration,
) -> BTreeMap<&'static str, f64> {
    let (b, a) = (&phase.before, &phase.at_sample);
    let n = phase.sample_ops.max(1) as f64;
    let per_op = |name: &str| a.delta(b, name) as f64 / n;
    let ms_per_op = |name: &str| a.delta(b, name) as f64 / 1e6 / n;
    let layers = tr.layers();
    let setup_layers = setup_tr.layers();
    // Model lowerings so far, for the per-lowering compiler counts.
    let deploys = (setup_layers.get("core.deploy").map_or(0, |l| l.calls)
        + tr.calls_before("core.deploy", phase.sample_steps))
    .max(1) as f64;
    let total = |name: &str| a.delta(&Counters::default(), name) as f64;
    let batch = a.hist_delta(b, "gateway.batch_size");
    let wait = a.hist_delta(b, "gateway.queue_wait_ns");
    let pool_total = a.delta(b, "kernel.pool.total_flops");
    let hits = a.delta(b, "shield.fs.chunk_cache_hits");
    let misses = a.delta(b, "shield.fs.chunk_cache_misses");

    let mut m = BTreeMap::new();
    m.insert(
        "core.publish_wall_ms",
        mean_ms(&setup_layers, "core.publish"),
    );
    m.insert("core.deploy_wall_ms", {
        let ops = mean_ms(&layers, "core.deploy");
        if ops > 0.0 {
            ops
        } else {
            mean_ms(&setup_layers, "core.deploy")
        }
    });
    m.insert("core.classify_wall_ms", mean_ms(&layers, "core.classify"));
    m.insert(
        "core.serving.encode_us",
        mean_ms(&layers, "core.serving.encode") * 1e3,
    );
    m.insert(
        "core.serving.decode_us",
        mean_ms(&layers, "core.serving.decode") * 1e3,
    );
    m.insert(
        "compiler.nodes_fused",
        total("compiler.nodes_fused") / deploys,
    );
    m.insert(
        "compiler.nodes_eliminated",
        total("compiler.nodes_eliminated") / deploys,
    );
    m.insert(
        "memory.peak_planned_bytes",
        a.gauge_peak("memory.peak_planned_bytes") as f64,
    );
    m.insert(
        "kernel.matmul.virt_ms_per_op",
        ms_per_op("kernel.matmul.ns"),
    );
    m.insert(
        "kernel.conv2d.virt_ms_per_op",
        ms_per_op("kernel.conv2d.ns"),
    );
    m.insert("kernel.other.virt_ms_per_op", ms_per_op("kernel.other.ns"));
    m.insert(
        "kernel.pool.critical_share",
        if pool_total == 0 {
            0.0
        } else {
            a.delta(b, "kernel.pool.critical_flops") as f64 / pool_total as f64
        },
    );
    m.insert("crypto.bytes_sealed_per_op", per_op("crypto.bytes_sealed"));
    m.insert("crypto.bytes_opened_per_op", per_op("crypto.bytes_opened"));
    m.insert("crypto.virt_ms_per_op", ms_per_op("cost.crypto.ns"));
    m.insert("crypto.sha256_bulk_mb_s", cal.sha256_bulk);
    m.insert("crypto.open_bulk_mb_s", cal.open_bulk);
    m.insert("crypto.seal_bulk_mb_s", cal.seal_bulk);
    m.insert("crypto.seal_64k_mb_s", cal.seal_64k);
    m.insert("crypto.seal_3k_mb_s", cal.seal_3k);
    m.insert(
        "tee.epc.faults_per_op",
        a.delta_scoped(b, "epc.faults") as f64 / n,
    );
    m.insert(
        "tee.epc.evictions_per_op",
        a.delta_scoped(b, "epc.evictions") as f64 / n,
    );
    m.insert("tee.paging_virt_ms_per_op", ms_per_op("cost.paging.ns"));
    m.insert("tee.transitions_per_op", per_op("cost.transitions.events"));
    m.insert("tee.syscalls_virt_ms_per_op", ms_per_op("cost.syscalls.ns"));
    m.insert("cas.attestations_per_op", per_op("cost.attestation.events"));
    m.insert(
        "cas.attest_virt_ms_per_op",
        ms_per_op("cost.attestation.ns"),
    );
    m.insert(
        "shield.fs.write_wall_ms",
        mean_ms(&layers, "shield.fs.write"),
    );
    m.insert("shield.fs.read_wall_ms", mean_ms(&layers, "shield.fs.read"));
    m.insert(
        "shield.fs.range_read_wall_ms",
        mean_ms(&layers, "shield.fs.range_read"),
    );
    m.insert(
        "shield.fs.recover_wall_ms",
        mean_ms(&layers, "shield.fs.recover"),
    );
    m.insert(
        "shield.fs.write_mb_s",
        mb_s(tr.bytes("shield.fs.write"), &layers, &["shield.fs.write"]),
    );
    m.insert(
        "shield.fs.read_mb_s",
        mb_s(
            tr.bytes("shield.fs.read") + tr.bytes("shield.fs.range_read"),
            &layers,
            &["shield.fs.read", "shield.fs.range_read"],
        ),
    );
    m.insert(
        "shield.fs.journal_commits_per_op",
        per_op("shield.fs.journal_commits"),
    );
    m.insert(
        "shield.fs.chunk_cache_hit_rate",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    m.insert(
        "shield.net.send_wall_us",
        mean_ms(&layers, "shield.net.send") * 1e3,
    );
    m.insert(
        "shield.net.recv_wall_us",
        mean_ms(&layers, "shield.net.recv") * 1e3,
    );
    m.insert(
        "shield.net.records_per_op",
        (a.delta(b, "shield.net.records_sent") + a.delta(b, "shield.net.records_received")) as f64
            / n,
    );
    m.insert(
        "shield.net.bytes_per_op",
        (a.delta(b, "shield.net.bytes_sent") + a.delta(b, "shield.net.bytes_received")) as f64 / n,
    );
    m.insert("shield.net.virt_ms_per_op", ms_per_op("cost.network.ns"));
    m.insert("shield.net.record_3k_mb_s", cal.net_3k);
    m.insert(
        "gateway.pump_wall_us",
        mean_ms(&layers, "gateway.pump") * 1e3,
    );
    m.insert(
        "gateway.batch_size_mean",
        if batch.count == 0 {
            0.0
        } else {
            batch.sum_ns as f64 / batch.count as f64
        },
    );
    m.insert(
        "gateway.queue_wait_virt_p50_ms",
        hist_percentile_ns(&wait, 50.0) as f64 / 1e6,
    );
    m.insert(
        "gateway.queue_wait_virt_p99_ms",
        hist_percentile_ns(&wait, 99.0) as f64 / 1e6,
    );
    m.insert("gateway.shed", a.delta(b, "gateway.shed") as f64);
    m.insert(
        "gateway.deadline_miss",
        a.delta(b, "gateway.deadline_miss") as f64,
    );
    m.insert("distrib.step_wall_ms", mean_ms(&layers, "distrib.step"));
    m.insert(
        "distrib.checkpoint_wall_ms",
        mean_ms(&layers, "distrib.checkpoint"),
    );
    m.insert(
        "distrib.comm.bytes_per_step",
        per_op("distrib.comm.bytes_sent"),
    );
    m.insert(
        "distrib.comm.exposed_virt_ms_per_step",
        a.hist_delta(b, "distrib.comm.comm_ns").sum_ns as f64 / 1e6 / n,
    );
    m.insert(
        "distrib.comm.hidden_virt_ms_per_step",
        a.hist_delta(b, "distrib.comm.overlap_hidden_ns").sum_ns as f64 / 1e6 / n,
    );
    m
}
