//! Memory-planner smoke gate: planned arenas vs per-tensor regions.
//!
//! Two experiments, both run planned and unplanned:
//!
//! * **training** at the Figure 8 size (CNN classifier, batch 100) — the
//!   planned arm is a hardware SecureSession, which keeps one persistent
//!   EPC region sized to the arena peak, so steady-state steps fault
//!   almost no pages; the unplanned arm compiles the same graph, runs
//!   [`train_unplanned`] and re-faults every activation page each step;
//! * **inference** on the Figure 5 largest model (Inception-v4, 163 MB)
//!   lowered through the Lite pipeline — the planned arm is the Lite
//!   interpreter replaying its arena slot writes, the unplanned arm runs
//!   [`run_unplanned`] with a free/realloc/touch-all cycle per run, both
//!   against a raw enclave.
//!
//! Both unplanned arms charge the enclave by hand, the way the
//! production paths charge a graph the planner cannot plan.
//!
//! The bin exits non-zero (assert) unless planned execution is
//! bit-identical to unplanned AND strictly cheaper in EPC faults,
//! paging time, and peak resident pages. CI runs it as a smoke gate and
//! archives `BENCH_memory.json`.

use securetf::secure_session::SecureSession;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fig8_training, fmt_ns, header};
use securetf_tee::{Enclave, EnclaveImage, EpcStats, ExecutionMode, Platform};
use securetf_tensor::autodiff::{run_unplanned, train_unplanned};
use securetf_tensor::kernels::WorkerPool;
use securetf_tensor::memory;
use securetf_tensor::optimizer::{Optimizer, Sgd};
use securetf_tensor::passes::Pipeline;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::models::{self, INCEPTION_V4};
use securetf_tflite::optimize::optimize_for_inference;
use std::collections::HashMap;
use std::sync::Arc;

const TRAIN_STEPS: usize = 6;
const TRAIN_BATCH: usize = 100;
const INFER_RUNS: usize = 3;

struct ArmResult {
    /// Bit patterns of the outputs (losses or logits), for exact
    /// cross-arm comparison.
    bits: Vec<u32>,
    epc: EpcStats,
    paging_ns: u64,
    /// Peak activation residency: the EPC peak for training, and the
    /// activation arena one inference needs for inference (under
    /// Inception-v4 both arms thrash to the same 94 MiB EPC ceiling, so
    /// the arena size is the discriminating number there).
    peak_bytes: u64,
}

impl ArmResult {
    fn new(enclave: &Enclave, bits: Vec<u32>, peak_bytes: Option<u64>) -> ArmResult {
        let epc = enclave.epc_stats();
        ArmResult {
            bits,
            paging_ns: epc.faults * enclave.cost_model().page_swap_ns(),
            peak_bytes: peak_bytes.unwrap_or(epc.peak_resident_pages * 4096),
            epc,
        }
    }
}

fn bench_enclave(runtime_bytes: Option<u64>) -> Arc<Enclave> {
    let mut image = EnclaveImage::builder().code(b"memory bench");
    if let Some(bytes) = runtime_bytes {
        image = image.runtime_bytes(bytes);
    }
    Platform::builder()
        .build()
        .create_enclave(&image.build(), ExecutionMode::Hardware)
        .expect("enclave")
}

fn train_planned_arm() -> ArmResult {
    let enclave = bench_enclave(None);
    let (model, batches) = fig8_training(TRAIN_STEPS, TRAIN_BATCH);
    let mut session = SecureSession::new(enclave.clone(), model);
    let mut sgd = Sgd::new(5e-4);
    let bits = batches
        .into_iter()
        .map(|(x, y)| session.train_step(x, y, &mut sgd).expect("train step").to_bits())
        .collect();
    ArmResult::new(&enclave, bits, None)
}

fn train_unplanned_arm() -> ArmResult {
    let enclave = bench_enclave(None);
    let (model, batches) = fig8_training(TRAIN_STEPS, TRAIN_BATCH);
    let compiled = Pipeline::training()
        .run(&model.graph, &[model.loss])
        .expect("compiles");
    let live = |id| compiled.target(id).expect("live node");
    let (graph, loss) = (&compiled.graph, live(model.loss));
    let mut vars = graph.variable_inits();
    // SecureSession's regions, charged with the fallback accounting: a
    // fresh region the size of everything a step produced (forward and
    // backward), touched end to end.
    let params = enclave.alloc("params", vars.values().map(Tensor::byte_len).sum());
    let mut activations = enclave.alloc("activations", 1);
    let mut sgd = Sgd::new(5e-4);
    let mut bits = Vec::with_capacity(TRAIN_STEPS);
    for (x, y) in batches {
        let feeds: HashMap<_, _> = [(live(model.input), x), (live(model.labels), y)]
            .into_iter()
            .collect();
        let (value, grads, stats) =
            train_unplanned(graph, &feeds, &vars, loss, &WorkerPool::serial()).expect("step");
        bits.push(value.to_bits());
        for (var, grad) in &grads {
            let value = vars.get_mut(var).expect("tracked variable");
            sgd.apply(*var, value, grad).expect("same shape");
        }
        enclave.touch_all(params).expect("touch params");
        enclave.free(activations).expect("free activations");
        activations = enclave.alloc("activations", (2 * stats.activation_bytes).max(1));
        enclave.touch_all(activations).expect("touch activations");
    }
    ArmResult::new(&enclave, bits, None)
}

/// The enclave hosting an Inception-v4 inference arm, with the model's
/// parameters loaded into EPC.
fn inference_enclave() -> Arc<Enclave> {
    let enclave = bench_enclave(Some(securetf_tflite::LITE_RUNTIME_BYTES));
    let params_region = enclave.alloc("model", models::build(INCEPTION_V4).param_bytes());
    enclave.touch_all(params_region).expect("model load");
    enclave
}

fn infer_planned_arm() -> ArmResult {
    let enclave = inference_enclave();
    let mut interp = Interpreter::new(models::build(INCEPTION_V4));
    let input = models::input_for(1);
    // Mirror SecureSession::charge: one persistent region sized to the
    // plan peak; each run touches only the slots it wrote.
    let mut bits = Vec::new();
    let mut activations = None;
    for _ in 0..INFER_RUNS {
        let out = interp.run(&input).expect("inference");
        bits.extend(out.data().iter().map(|v| v.to_bits()));
        let peak = interp.planned_peak_bytes().expect("planned");
        let region = *activations.get_or_insert_with(|| enclave.alloc("activations", peak));
        for w in interp.take_slot_writes() {
            enclave.touch(region, w.offset, w.bytes).expect("touch slot");
        }
    }
    ArmResult::new(&enclave, bits, interp.planned_peak_bytes())
}

fn infer_unplanned_arm() -> ArmResult {
    let enclave = inference_enclave();
    let (model, _) = optimize_for_inference(&models::build(INCEPTION_V4)).expect("lowers");
    let (graph, output) = (model.graph(), model.output());
    let feeds: HashMap<_, _> = [(model.input(), models::input_for(1))].into_iter().collect();
    let no_vars = HashMap::new();
    // Mirror SecureSession's fallback accounting: each run re-allocates
    // a region for everything it produced and touches it end to end.
    let mut bits = Vec::new();
    let mut activations = None;
    for _ in 0..INFER_RUNS {
        let (outs, stats) =
            run_unplanned(graph, &feeds, &no_vars, &[output], &WorkerPool::serial())
                .expect("inference");
        bits.extend(outs[0].data().iter().map(|v| v.to_bits()));
        if let Some(region) = activations.take() {
            enclave.free(region).expect("free activations");
        }
        let region = enclave.alloc("activations", stats.activation_bytes.max(1));
        enclave.touch_all(region).expect("touch activations");
        activations = Some(region);
    }
    // Without lifetime sharing every activation buffer is live at the
    // end of the run: the arena is the plan's unshared size.
    let needed = vec![true; graph.len()];
    let shapes = memory::infer_shapes(graph, &needed, &feeds, &no_vars).expect("shapes");
    let plan = memory::plan_inference(graph, shapes, &needed, &[output]).expect("plan");
    ArmResult::new(&enclave, bits, Some(plan.unshared_bytes))
}

fn compare(name: &str, planned: &ArmResult, unplanned: &ArmResult) {
    assert_eq!(
        planned.bits, unplanned.bits,
        "{name}: planned output diverges from unplanned"
    );
    assert!(
        planned.epc.faults < unplanned.epc.faults,
        "{name}: planned faults {} not below unplanned {}",
        planned.epc.faults,
        unplanned.epc.faults
    );
    assert!(
        planned.paging_ns < unplanned.paging_ns,
        "{name}: planned paging {} ns not below unplanned {} ns",
        planned.paging_ns,
        unplanned.paging_ns
    );
    assert!(
        planned.peak_bytes < unplanned.peak_bytes,
        "{name}: planned peak resident {} not below unplanned {}",
        planned.peak_bytes,
        unplanned.peak_bytes
    );
}

fn row(name: &str, arm: &ArmResult) {
    println!(
        "{name:>22} | {:>8} | {:>10} | {:>12}",
        arm.epc.faults,
        fmt_ns(arm.paging_ns),
        arm.peak_bytes,
    );
}

fn report_arm(arm: &ArmResult) -> JsonValue {
    JsonValue::Object(vec![
        ("epc_faults".to_string(), JsonValue::U64(arm.epc.faults)),
        ("paging_ns".to_string(), JsonValue::U64(arm.paging_ns)),
        (
            "peak_activation_bytes".to_string(),
            JsonValue::U64(arm.peak_bytes),
        ),
    ])
}

fn main() {
    header(
        "Memory planner: planned arena vs per-tensor regions (hardware mode)",
        &["experiment", "faults", "paging    ", "peak resident"],
    );

    let train_planned = train_planned_arm();
    let train_unplanned = train_unplanned_arm();
    row("train planned", &train_planned);
    row("train unplanned", &train_unplanned);
    compare("training (fig8 CNN)", &train_planned, &train_unplanned);

    let infer_planned = infer_planned_arm();
    let infer_unplanned = infer_unplanned_arm();
    row("inception-v4 planned", &infer_planned);
    row("inception-v4 unplanned", &infer_unplanned);
    compare("inference (inception-v4)", &infer_planned, &infer_unplanned);

    println!(
        "\nplanned outputs are bit-identical to unplanned; faults, paging\n\
         time and peak residency are strictly lower in both experiments."
    );

    BenchReport::new("memory")
        .mode("hw")
        .paper_target("planned arena faults/paging strictly below per-tensor regions")
        .value("train_planned", report_arm(&train_planned))
        .value("train_unplanned", report_arm(&train_unplanned))
        .value("inception_v4_planned", report_arm(&infer_planned))
        .value("inception_v4_unplanned", report_arm(&infer_unplanned))
        .emit();
}
