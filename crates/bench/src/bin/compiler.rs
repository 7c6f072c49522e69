//! Graph-compiler smoke gate: pass pipeline on vs off.
//!
//! Two experiments, each run optimized (the production path) and
//! baseline (a [`PlannedExecutor`] on the raw graph, charged by hand the
//! way the production path charges the enclave):
//!
//! * **training** one Figure 8 CNN epoch slice in a hardware
//!   SecureSession — the training pipeline (DCE → fold → fuse) rewrites
//!   every `matmul → bias` / `conv → bias → relu` chain into fused
//!   kernels; the loss trajectory must stay bit-identical;
//! * **inference** on the Figure 5 largest model (Inception-v4, 163 MB)
//!   with the Lite interpreter hosted on a raw enclave, replaying arena
//!   slot writes — fusion skips the per-layer bias/relu intermediates,
//!   so the optimized run writes fewer arena slots (fewer EPC faults)
//!   and moves the epilogue flops out of the element-wise kernel family.
//!
//! The bin exits non-zero (assert) unless both experiments are
//! bit-identical AND fused inference charges strictly fewer EPC faults
//! AND at least 15% less element-wise (`other`-family) kernel time AND
//! no more total kernel time. CI runs it as a smoke gate and archives
//! `BENCH_compiler.json`.

use securetf::secure_session::SecureSession;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fig8_training, fmt_ns, header};
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::autodiff::RunStats;
use securetf_tensor::kernels::WorkerPool;
use securetf_tensor::memory::PlannedExecutor;
use securetf_tensor::optimizer::{Optimizer, Sgd};
use securetf_tensor::passes::PipelineReport;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::models::{self, INCEPTION_V4};
use std::collections::HashMap;
use std::sync::Arc;

const TRAIN_STEPS: usize = 6;
const TRAIN_BATCH: usize = 100;
const INFER_RUNS: usize = 3;

#[derive(Default)]
struct ArmResult {
    /// Bit patterns of the outputs (losses or logits), for exact
    /// cross-arm comparison.
    bits: Vec<u32>,
    epc_faults: u64,
    /// Virtual time in the element-wise kernel family (biases, relus,
    /// pools, losses) — what fusion removes.
    other_ns: u64,
    /// Virtual time across all kernel families.
    total_ns: u64,
    /// Graph node count before/after compilation (equal when the
    /// pipeline is off).
    nodes_before: u64,
    nodes_after: u64,
    nodes_fused: u64,
    nodes_eliminated: u64,
}

fn record_report(arm: &mut ArmResult, report: Option<&PipelineReport>) {
    if let Some(report) = report {
        arm.nodes_before = report.nodes_before() as u64;
        arm.nodes_after = report.nodes_after() as u64;
        arm.nodes_fused = report.nodes_fused();
        arm.nodes_eliminated = report.nodes_eliminated();
    }
}

fn bench_enclave(image: EnclaveImage, telemetry: Telemetry) -> Arc<Enclave> {
    Platform::builder()
        .telemetry(telemetry)
        .build()
        .create_enclave(&image, ExecutionMode::Hardware)
        .expect("enclave")
}

fn train_optimized() -> ArmResult {
    let telemetry = Telemetry::new(Arc::new(SimClock::new()));
    let image = EnclaveImage::builder().code(b"compiler bench").build();
    let enclave = bench_enclave(image, telemetry.clone());
    let (model, batches) = fig8_training(TRAIN_STEPS, TRAIN_BATCH);
    let mut session = SecureSession::new(enclave.clone(), model);
    let mut sgd = Sgd::new(5e-4);
    let mut arm = ArmResult::default();
    for (x, y) in batches {
        let loss = session.train_step(x, y, &mut sgd).expect("train step");
        arm.bits.push(loss.to_bits());
    }
    // SecureSession::charge drains the session stats onto telemetry
    // after every step; read the accumulated per-family counters back.
    arm.other_ns = telemetry.counter("kernel.other.ns").get();
    arm.total_ns = arm.other_ns
        + telemetry.counter("kernel.matmul.ns").get()
        + telemetry.counter("kernel.conv2d.ns").get();
    arm.epc_faults = enclave.epc_stats().faults;
    record_report(&mut arm, session.session().pipeline_report());
    arm
}

fn train_baseline() -> ArmResult {
    let image = EnclaveImage::builder().code(b"compiler bench").build();
    let enclave = bench_enclave(image, Telemetry::disabled());
    let (cost, mode) = (enclave.cost_model(), enclave.mode());
    let (model, batches) = fig8_training(TRAIN_STEPS, TRAIN_BATCH);
    let graph = &model.graph;
    let mut vars = graph.variable_inits();
    let mut planner = PlannedExecutor::new();
    // SecureSession's regions and planned charging: a persistent
    // activation region resized to the arena peak, touched slot by slot.
    let params = enclave.alloc("params", vars.values().map(Tensor::byte_len).sum());
    let mut activations = enclave.alloc("activations", 1);
    let mut activations_bytes = 1;
    let mut sgd = Sgd::new(5e-4);
    let mut arm = ArmResult::default();
    for (x, y) in batches {
        let feeds: HashMap<_, _> = [(model.input, x), (model.labels, y)].into_iter().collect();
        let (value, grads, mut stats) = planner
            .train(graph, &feeds, &vars, model.loss, &WorkerPool::serial())
            .expect("train step");
        arm.bits.push(value.to_bits());
        for (var, grad) in &grads {
            let value = vars.get_mut(var).expect("tracked variable");
            sgd.apply(*var, value, grad).expect("same shape");
        }
        // Backward costs roughly 2x forward compute, as in Session.
        stats.scale_compute(3.0);
        let kf = stats.kernel_flops;
        let other_ns = cost.compute_ns(kf.other, mode);
        arm.other_ns += other_ns;
        arm.total_ns +=
            other_ns + cost.compute_ns(kf.matmul, mode) + cost.compute_ns(kf.conv2d, mode);
        enclave.touch_all(params).expect("touch params");
        let peak = planner.planned_peak_bytes().expect("planned");
        if peak != activations_bytes {
            enclave.free(activations).expect("free activations");
            activations = enclave.alloc("activations", peak);
            activations_bytes = peak;
        }
        for w in planner.take_slot_writes() {
            enclave.touch(activations, w.offset, w.bytes).expect("touch slot");
        }
    }
    arm.epc_faults = enclave.epc_stats().faults;
    arm.nodes_before = graph.len() as u64;
    arm.nodes_after = arm.nodes_before;
    arm
}

/// Runs `INFER_RUNS` Inception-v4 inferences through `infer` on an
/// enclave holding the model, charging as SecureClassifier does: every
/// inference streams the model through the EPC once (evicting the small
/// activation region), then touches exactly the arena slots the run
/// wrote — so each run re-faults one page per written slot.
fn infer_arm(
    mut infer: impl FnMut(&Tensor) -> (Tensor, RunStats, u64, Vec<(u64, u64)>),
) -> ArmResult {
    let image = EnclaveImage::builder()
        .code(b"compiler bench")
        .runtime_bytes(securetf_tflite::LITE_RUNTIME_BYTES)
        .build();
    let enclave = bench_enclave(image, Telemetry::disabled());
    let params_region = enclave.alloc("model", models::build(INCEPTION_V4).param_bytes());
    enclave.touch_all(params_region).expect("model load");
    let input = models::input_for(1);

    let mut arm = ArmResult::default();
    let mut activations = None;
    let mut total = RunStats::default();
    for _ in 0..INFER_RUNS {
        let (out, stats, planned_peak, writes) = infer(&input);
        arm.bits.extend(out.data().iter().map(|v| v.to_bits()));
        total.merge(stats);
        enclave.touch_all(params_region).expect("model pass");
        let region = *activations
            .get_or_insert_with(|| enclave.alloc("activations", planned_peak.max(1)));
        for (offset, bytes) in writes {
            enclave.touch(region, offset, bytes).expect("touch slot");
        }
    }
    let kf = total.kernel_flops;
    let cost = enclave.cost_model();
    let mode = enclave.mode();
    arm.other_ns = cost.compute_ns(kf.other, mode);
    arm.total_ns = cost.compute_ns(kf.matmul + kf.conv2d + kf.other, mode);
    arm.epc_faults = enclave.epc_stats().faults;
    arm
}

fn infer_optimized() -> ArmResult {
    let mut interp = Interpreter::new(models::build(INCEPTION_V4));
    let mut last = interp.stats();
    let mut arm = infer_arm(|input| {
        let out = interp.run(input).expect("inference");
        let stats = interp.stats().since(&last);
        last = interp.stats();
        let writes = interp.take_slot_writes().iter().map(|w| (w.offset, w.bytes)).collect();
        (out, stats, interp.planned_peak_bytes().expect("planned"), writes)
    });
    record_report(&mut arm, interp.pipeline_report());
    arm
}

fn infer_baseline() -> ArmResult {
    let model = models::build(INCEPTION_V4);
    let mut planner = PlannedExecutor::new();
    let feeds_for = |input: &Tensor| -> HashMap<_, _> {
        [(model.input(), input.clone())].into_iter().collect()
    };
    let mut arm = infer_arm(|input| {
        let (mut outs, mut stats) = planner
            .run(
                model.graph(),
                &feeds_for(input),
                &HashMap::new(),
                &[model.output()],
                &WorkerPool::serial(),
            )
            .expect("inference");
        // As the interpreter does: synthetic stand-ins charge the
        // original model's declared compute.
        if model.declared_flops() > 0.0 {
            stats.rescale_flops(model.declared_flops());
        }
        let writes = planner.take_slot_writes().iter().map(|w| (w.offset, w.bytes)).collect();
        let out = outs.pop().expect("one output");
        (out, stats, planner.planned_peak_bytes().expect("planned"), writes)
    });
    arm.nodes_before = model.graph().len() as u64;
    arm.nodes_after = arm.nodes_before;
    arm
}

fn compare(name: &str, optimized: &ArmResult, baseline: &ArmResult, gate_costs: bool) {
    assert_eq!(
        optimized.bits, baseline.bits,
        "{name}: optimized output diverges from baseline"
    );
    assert!(
        optimized.nodes_fused > 0 && optimized.nodes_after < optimized.nodes_before,
        "{name}: pipeline fused nothing ({} nodes before, {} after)",
        optimized.nodes_before,
        optimized.nodes_after
    );
    if !gate_costs {
        return;
    }
    assert!(
        optimized.epc_faults < baseline.epc_faults,
        "{name}: optimized EPC faults {} not strictly below baseline {}",
        optimized.epc_faults,
        baseline.epc_faults
    );
    assert!(
        (optimized.other_ns as f64) <= 0.85 * baseline.other_ns as f64,
        "{name}: element-wise kernel time {} ns not >=15% below baseline {} ns",
        optimized.other_ns,
        baseline.other_ns
    );
    assert!(
        optimized.total_ns <= baseline.total_ns,
        "{name}: total kernel time {} ns above baseline {} ns",
        optimized.total_ns,
        baseline.total_ns
    );
}

fn row(name: &str, arm: &ArmResult) {
    println!(
        "{name:>24} | {:>9} | {:>10} | {:>10} | {:>5} -> {:<5}",
        arm.epc_faults,
        fmt_ns(arm.other_ns),
        fmt_ns(arm.total_ns),
        arm.nodes_before,
        arm.nodes_after,
    );
}

fn report_arm(arm: &ArmResult) -> JsonValue {
    JsonValue::Object(vec![
        ("epc_faults".to_string(), JsonValue::U64(arm.epc_faults)),
        ("other_kernel_ns".to_string(), JsonValue::U64(arm.other_ns)),
        ("total_kernel_ns".to_string(), JsonValue::U64(arm.total_ns)),
        ("nodes_before".to_string(), JsonValue::U64(arm.nodes_before)),
        ("nodes_after".to_string(), JsonValue::U64(arm.nodes_after)),
        ("nodes_fused".to_string(), JsonValue::U64(arm.nodes_fused)),
        (
            "nodes_eliminated".to_string(),
            JsonValue::U64(arm.nodes_eliminated),
        ),
    ])
}

fn main() {
    header(
        "Graph compiler: pass pipeline on vs off (hardware mode)",
        &["experiment", "faults  ", "other ns ", "total ns ", "nodes"],
    );

    let train_optimized = train_optimized();
    let train_baseline = train_baseline();
    row("train optimized", &train_optimized);
    row("train baseline", &train_baseline);
    compare(
        "training (fig8 CNN)",
        &train_optimized,
        &train_baseline,
        false,
    );

    let infer_optimized = infer_optimized();
    let infer_baseline = infer_baseline();
    row("inception-v4 optimized", &infer_optimized);
    row("inception-v4 baseline", &infer_baseline);
    compare(
        "inference (inception-v4)",
        &infer_optimized,
        &infer_baseline,
        true,
    );

    println!(
        "\noptimized outputs are bit-identical to baseline in both\n\
         experiments; fused inference charges strictly fewer EPC faults\n\
         and >=15% less element-wise kernel time."
    );

    BenchReport::new("compiler")
        .mode("hw")
        .paper_target("fused inference: fewer EPC faults, >=15% less element-wise kernel time")
        .value("train_optimized", report_arm(&train_optimized))
        .value("train_baseline", report_arm(&train_baseline))
        .value("inception_v4_optimized", report_arm(&infer_optimized))
        .value("inception_v4_baseline", report_arm(&infer_baseline))
        .emit();
}
