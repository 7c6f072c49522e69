//! `train_fig8`: the paper's Figure 8 training configuration — the MNIST
//! CNN, batch 100, lr 5e-4, two workers and one parameter server in
//! hardware mode, network shield on at Figure 8's 12 MB/s — with a
//! sealed checkpoint through the fs shield every [`CHECKPOINT_EVERY`]
//! steps.
//!
//! Chosen because tensor kernels, autodiff, the memory planner,
//! distributed comm and the wire codec do the work; crypto and the
//! gateway do almost none, and the checkpoint stall stays visible in the
//! tail.

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{Done, Layers, Workload};
use rand::{Rng, SeedableRng};
use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::{CostModel, ExecutionMode, Telemetry};
use securetf_tensor::layers;

pub const CHECKPOINT_EVERY: u64 = 10;
const CHECKPOINT_PATH: &str = "/ckpt/fig8";
const SAMPLES: usize = 1200;
const LR: f32 = 5e-4;

pub struct TrainFig8 {
    trainer: DistributedTrainer,
    fs: FsShield,
    telemetry: Telemetry,
    steps: u64,
    /// Loss when the virtual sample closed (bits repeat per seed).
    sample_loss: Option<f32>,
    batch: usize,
}

impl TrainFig8 {
    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let open = tr.enter("distrib.checkpoint");
        let bytes = tr
            .time("distrib.checkpoint_bytes", || {
                self.trainer.checkpoint_bytes(CHECKPOINT_PATH)
            })
            .map_err(|e| e.to_string())?;
        tr.add_bytes("shield.fs.write", bytes.len() as u64);
        let fs = &mut self.fs;
        tr.time("shield.fs.write", || fs.write(CHECKPOINT_PATH, &bytes))
            .map_err(|e| e.to_string())?;
        tr.add_bytes("shield.fs.read", bytes.len() as u64);
        let back = tr
            .time("shield.fs.read", || self.fs.read(CHECKPOINT_PATH))
            .map_err(|e| e.to_string())?;
        tr.exit(open);
        if back == bytes {
            Ok(())
        } else {
            Err("checkpoint read back differs from what was written".into())
        }
    }
}

impl Workload for TrainFig8 {
    const SAMPLE: usize = 30;
    const WINDOW: usize = CHECKPOINT_EVERY as usize;

    fn setup(seed: u64, traced: bool, tr: &mut Tracer) -> Result<Self, String> {
        let telemetry = if traced {
            securetf_tee::SimClock::new().telemetry()
        } else {
            Telemetry::disabled()
        };
        let cluster = tr
            .time("distrib.cluster", || {
                Cluster::new(ClusterConfig {
                    workers: 2,
                    parameter_servers: 1,
                    mode: ExecutionMode::Hardware,
                    network_shield: true,
                    // The paper's network shield (TLS-wrapped gRPC inside
                    // the enclave) runs at ~12 MB/s effective (§5.4).
                    cost_model: Some(CostModel {
                        shield_net_bytes_per_sec: 12.0e6,
                        ..CostModel::default()
                    }),
                    telemetry: telemetry.clone(),
                    ..ClusterConfig::default()
                })
            })
            .map_err(|e| format!("cluster: {e}"))?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let model =
            layers::conv_classifier(28, 28, 1, 16, 10, &mut rng).map_err(|e| e.to_string())?;
        let data = securetf_data::synthetic_mnist(SAMPLES, seed);
        // Batch 100 ± 1 by seed: the cost model charges by shape, so this
        // is what makes virtual step time a function of the input.
        let batch = 99 + rng.gen_range(0..3usize);
        let trainer = DistributedTrainer::new(cluster, model, data, batch, LR)
            .map_err(|e| format!("trainer: {e}"))?;
        let ps = trainer.cluster().ps.enclave.clone();
        let mut w = TrainFig8 {
            trainer,
            fs: FsShield::new(ps, UntrustedStore::new()),
            telemetry,
            steps: 0,
            sample_loss: None,
            batch,
        };
        // Warm-up: two steps and one checkpoint.
        for _ in 0..2 {
            w.trainer.step().map_err(|e| format!("warm-up step: {e}"))?;
        }
        w.checkpoint(tr)?;
        Ok(w)
    }

    fn step(&mut self, tr: &mut Tracer, done: &mut Vec<Done>) {
        let g0 = self.trainer.elapsed_ns();
        let loss = tr.time("distrib.step", || self.trainer.step());
        let mut virt_ns = self.trainer.elapsed_ns() - g0;
        let mut ok = matches!(loss, Ok(l) if l.is_finite());
        self.steps += 1;
        if self.steps.is_multiple_of(CHECKPOINT_EVERY) {
            // The checkpoint stalls the step on the parameter server.
            let ps_clock = self.trainer.cluster().ps.clock().clone();
            let p0 = ps_clock.now_ns();
            ok &= self.checkpoint(tr).is_ok();
            virt_ns += ps_clock.now_ns() - p0;
        }
        if self.steps == Self::SAMPLE as u64 {
            self.sample_loss = loss.ok();
        }
        done.push(Done {
            virt_ns,
            end_ns: self.trainer.elapsed_ns(),
            ok,
        });
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn fingerprint(&self) -> u64 {
        u64::from(self.sample_loss.map_or(0, f32::to_bits)) << 16 | self.batch as u64
    }

    fn split_check(
        &self,
        layers: &Layers,
        root_ns: u64,
        _: u64,
        _: &Calibration,
    ) -> (String, bool) {
        let step = layers.get("distrib.step").map_or(0, |l| l.total_ns);
        let share = step as f64 / root_ns.max(1) as f64;
        (
            format!(
                "DistributedTrainer::step covers {:.1}% of the op wall (predicted >= 90%); batch {}, loss at sample end {:?}",
                share * 100.0,
                self.batch,
                self.sample_loss
            ),
            share >= 0.9,
        )
    }
}
