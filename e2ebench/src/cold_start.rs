//! `cold_start`: publish Inception-v4 once, then per op boot a fresh
//! hardware enclave, attest it to CAS, load, verify and lower the
//! 163 MiB model, and answer a first request.
//!
//! Chosen because crypto (SHA-256 verify and AEAD open of the blob),
//! Lite model load/lowering and EPC paging of a model larger than the
//! 94 MiB EPC do almost all the work; the gateway, network shield, fs
//! shield and autodiff do none.

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{Done, Layers, Workload};
use rand::{Rng, SeedableRng};
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_tee::{ExecutionMode, SimClock, Telemetry};
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::models::{self, INCEPTION_V4};

const SERVICE: &str = "classify";
const PATH: &str = "/models/inception_v4";
/// Distinct seeded first requests, cycled through by the ops.
const INPUTS: usize = 4;
/// Input width of the synthetic paper models.
const WIDTH: usize = 1024;

pub struct ColdStart {
    clock: SimClock,
    telemetry: Telemetry,
    deployment: Deployment,
    /// Seeded first requests and their reference labels.
    inputs: Vec<(Tensor, Vec<usize>)>,
    next: usize,
    blob_bytes: u64,
}

impl ColdStart {
    fn op(&mut self, tr: &mut Tracer) -> Done {
        let (input, expected) = &self.inputs[self.next % INPUTS];
        self.next += 1;
        let t0 = self.clock.now_ns();
        let deployment = &mut self.deployment;
        let classifier = tr.time("core.deploy", || {
            deployment.deploy_classifier(SERVICE, PATH, RuntimeProfile::scone_lite())
        });
        let ok = match classifier {
            Ok(mut classifier) => {
                let labels = tr.time("core.classify", || classifier.classify_batch(input));
                tr.time("core.teardown", || drop(classifier));
                matches!(labels, Ok((ref got, _)) if got == expected)
            }
            Err(_) => false,
        };
        let end_ns = self.clock.now_ns();
        Done {
            virt_ns: end_ns - t0,
            end_ns,
            ok,
        }
    }
}

impl Workload for ColdStart {
    // ~2.3 s per op: four ops fit the timed phase; the tail is their max.
    const SAMPLE: usize = 3;
    const WINDOW: usize = 1;
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64, traced: bool, tr: &mut Tracer) -> Result<Self, String> {
        let clock = SimClock::new();
        let telemetry = if traced {
            clock.telemetry()
        } else {
            Telemetry::disabled()
        };
        let model = tr.time("tflite.build", || models::build(INCEPTION_V4));
        let mut deployment =
            Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
        tr.time("core.publish", || {
            deployment.publish_model(SERVICE, PATH, &model)
        })
        .map_err(|e| format!("publish: {e}"))?;
        let blob_bytes = deployment
            .store()
            .raw_contents(PATH)
            .map_or(0, |b| b.len() as u64);

        // Seeded first requests: 2–6 rows each, so the seed moves the
        // workspace the first inference pages in.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference = tr.time("tflite.reference", || Interpreter::new(model));
        let mut inputs = Vec::with_capacity(INPUTS);
        for _ in 0..INPUTS {
            let rows = rng.gen_range(2..=6usize);
            let data: Vec<f32> = (0..rows * WIDTH)
                .map(|_| rng.gen_range(-1.0..1.0f32))
                .collect();
            let input = Tensor::from_vec(&[rows, WIDTH], data).map_err(|e| e.to_string())?;
            let labels = reference
                .classify_batch(&input)
                .map_err(|e| format!("reference: {e}"))?;
            inputs.push((input, labels));
        }
        drop(reference);

        let mut w = ColdStart {
            clock,
            telemetry,
            deployment,
            inputs,
            next: 0,
            blob_bytes,
        };
        // Warm-up op on a request the timed phase does not start with.
        w.next = INPUTS - 1;
        if !w.op(tr).ok {
            return Err("warm-up deploy/classify failed its output check".into());
        }
        w.next = 0;
        Ok(w)
    }

    fn step(&mut self, tr: &mut Tracer, done: &mut Vec<Done>) {
        let d = self.op(tr);
        done.push(d);
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn split_check(&self, _: &Layers, root_ns: u64, ops: u64, cal: &Calibration) -> (String, bool) {
        // The verify hash and the AEAD open run inside deploy_classifier;
        // estimate their wall share from the calibrated rates.
        let mb = self.blob_bytes as f64 / 1e6;
        let crypto_ms = (mb / cal.sha256_bulk + mb / cal.open_bulk) * 1e3;
        let op_ms = root_ns as f64 / 1e6 / ops.max(1) as f64;
        let share = crypto_ms / op_ms;
        (
            format!(
                "calibrated crypto (sha256 + open of {mb:.0} MB) = {crypto_ms:.0} ms of a {op_ms:.0} ms op ({:.0}%; predicted >= 50%)",
                share * 100.0
            ),
            share >= 0.5,
        )
    }
}
