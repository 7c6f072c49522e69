//! `serve_mnist`: the §6.1 document-digitization model behind the
//! gateway, driven by an open loop of Poisson arrivals in virtual time.
//!
//! Chosen because each request is a ~3 KB record seal/open on an
//! attested channel, request/response codec work, gateway admission and
//! micro-batching, and a tiny-batch inference: the network shield,
//! `core::serving` and the gateway dominate, with no bulk crypto, fs or
//! autodiff.
//!
//! Generator rule (open loop): arrivals are drawn ahead of time from
//! the seed at [`OFFERED_RPS`]. Each event-loop round the generator
//! jumps the idle clock to the next due time, sends the oldest due
//! requests (at most [`FEED`] per round), pumps the gateway once and
//! reads every response. A request's latency runs from its due time to
//! the round in which its response is read, so a stall that makes the
//! generator late is charged to the requests it delayed; the largest
//! lateness (send time minus due time) is reported.

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{Done, Layers, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::secure_session::SecureSession;
use securetf::serving::{decode_response, encode_request, Request, Response};
use securetf_gateway::chaos::{attested_pair, SwitchTransport};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_shield::net::SecureChannel;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::layers;
use securetf_tensor::optimizer::Sgd;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use std::collections::{HashMap, VecDeque};

/// Offered load, requests per virtual second: below the knee, so the
/// gateway sheds nothing at queue capacity 64.
pub const OFFERED_RPS: f64 = 35_000.0;
/// Goodput counts answers within this virtual latency.
pub const LATENCY_LIMIT_NS: u64 = 5_000_000;
/// Requests sent per event-loop round at most (one full batch).
pub const FEED: usize = 16;
const CLIENTS: usize = 2;
const ROWS: usize = 256;
const WARM_UP: usize = 512;

pub struct ServeMnist {
    clock: SimClock,
    telemetry: Telemetry,
    gateway: Gateway<SwitchTransport>,
    clients: Vec<SecureChannel<SwitchTransport>>,
    rows: Vec<Tensor>,
    reference: Vec<usize>,
    rng: StdRng,
    next_due: f64,
    next_id: u64,
    /// Due but not yet sent: `(id, due ns, row)`.
    backlog: VecDeque<(u64, u64, usize)>,
    /// Sent and not yet answered: id → `(due ns, row)`.
    in_flight: HashMap<u64, (u64, usize)>,
    /// Largest generator lateness over the virtual sample's requests.
    late_max_ns: u64,
    /// Requests with ids below this make up the virtual sample.
    sample_end_id: u64,
    phase_start_ns: u64,
}

impl ServeMnist {
    fn fail_in_flight(&mut self, done: &mut Vec<Done>) {
        let now = self.clock.now_ns();
        for (_, (due, _)) in self.in_flight.drain() {
            done.push(Done {
                virt_ns: now - due,
                end_ns: now,
                ok: false,
            });
        }
    }
}

impl Workload for ServeMnist {
    const SAMPLE: usize = 30_000;
    const WINDOW: usize = 2_000;

    fn setup(seed: u64, traced: bool, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        // The company trains its handwriting model in an enclave (§6.1).
        let lite = tr.time("core.train_export", || -> Result<_, String> {
            let trainer = Platform::builder()
                .build()
                .create_enclave(
                    &EnclaveImage::builder().code(b"doc trainer").build(),
                    ExecutionMode::Hardware,
                )
                .map_err(|e| e.to_string())?;
            let model =
                layers::mlp_classifier(784, &[64], 10, &mut rng).map_err(|e| e.to_string())?;
            let mut session = SecureSession::new(trainer, model);
            let data = securetf_data::synthetic_mnist(500, seed);
            let mut sgd = Sgd::new(0.05);
            for _ in 0..10 {
                for start in (0..500).step_by(100) {
                    let (x, y) = data.batch(start, 100).map_err(|e| e.to_string())?;
                    session
                        .train_step(x, y, &mut sgd)
                        .map_err(|e| e.to_string())?;
                }
            }
            session.export_lite().map_err(|e| e.to_string())
        })?;

        let docs = securetf_data::synthetic_mnist(ROWS, seed ^ 0x5e5e);
        let (all, _) = docs.batch(0, ROWS).map_err(|e| e.to_string())?;
        let reference = Interpreter::new(lite.clone())
            .classify_batch(&all)
            .map_err(|e| format!("reference: {e}"))?;
        let rows = (0..ROWS)
            .map(|i| docs.batch(i, 1).map(|(x, _)| x).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;

        let clock = SimClock::new();
        let telemetry = if traced {
            clock.telemetry()
        } else {
            Telemetry::disabled()
        };
        let mut deployment =
            Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
        tr.time("core.publish", || {
            deployment.publish_model("digitize", "/cloud/model", &lite)
        })
        .map_err(|e| format!("publish: {e}"))?;
        let classifier = tr
            .time("core.deploy", || {
                deployment.deploy_classifier(
                    "digitize",
                    "/cloud/model",
                    RuntimeProfile::scone_lite(),
                )
            })
            .map_err(|e| format!("deploy: {e}"))?;
        let service = classifier.enclave().clone();
        let mut gateway = Gateway::new(
            classifier,
            GatewayConfig {
                max_batch: 16,
                queue_capacity: 64,
                ..GatewayConfig::default()
            },
        );
        let clients = tr.time("shield.net.handshake", || {
            (0..CLIENTS)
                .map(|_| {
                    let (server, client) = attested_pair(service.clone());
                    gateway.accept(server);
                    client
                })
                .collect()
        });
        let mut w = ServeMnist {
            next_due: clock.now_ns() as f64,
            clock,
            telemetry,
            gateway,
            clients,
            rows,
            reference,
            rng,
            next_id: 0,
            backlog: VecDeque::new(),
            in_flight: HashMap::new(),
            late_max_ns: 0,
            sample_end_id: 0,
            phase_start_ns: 0,
        };
        let mut warm = Vec::new();
        while warm.len() < WARM_UP {
            w.step(tr, &mut warm);
        }
        if warm.iter().any(|d| !d.ok) {
            return Err("warm-up requests failed their output check".into());
        }
        w.late_max_ns = 0;
        w.sample_end_id = w.next_id + Self::SAMPLE as u64;
        w.phase_start_ns = w.clock.now_ns();
        Ok(w)
    }

    fn step(&mut self, tr: &mut Tracer, done: &mut Vec<Done>) {
        let now = self.clock.now_ns();
        if self.backlog.is_empty() && self.next_due as u64 > now {
            self.clock.advance(self.next_due as u64 - now);
        }
        let now = self.clock.now_ns();
        while self.next_due as u64 <= now {
            let row = self.rng.gen_range(0..ROWS);
            self.backlog
                .push_back((self.next_id, self.next_due as u64, row));
            self.next_id += 1;
            let u: f64 = self.rng.gen();
            self.next_due += -(1.0 - u).ln() / OFFERED_RPS * 1e9;
        }

        for _ in 0..FEED.min(self.backlog.len()) {
            let (id, due, row) = self.backlog.pop_front().expect("bounded by len");
            if id < self.sample_end_id {
                self.late_max_ns = self.late_max_ns.max(now - due);
            }
            let request = Request::new(id, self.rows[row].clone());
            let frame = tr.time("core.serving.encode", || encode_request(&request));
            let client = &mut self.clients[id as usize % CLIENTS];
            if tr.time("shield.net.send", || client.send(&frame)).is_ok() {
                self.in_flight.insert(id, (due, row));
            } else {
                done.push(Done {
                    virt_ns: now - due,
                    end_ns: now,
                    ok: false,
                });
            }
        }

        let gateway = &mut self.gateway;
        if tr.time("gateway.pump", || gateway.pump()).is_err() {
            self.fail_in_flight(done);
            return;
        }

        let now = self.clock.now_ns();
        for c in 0..CLIENTS {
            loop {
                let client = &mut self.clients[c];
                let frame = match tr.time("shield.net.recv", || client.try_recv()) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        self.fail_in_flight(done);
                        return;
                    }
                };
                let response = tr.time("core.serving.decode", || decode_response(&frame));
                let (id, label) = match response {
                    Ok(Response::Label { id, label }) => (id, Some(label as usize)),
                    Ok(Response::Error { id, .. } | Response::Unavailable { id, .. }) => (id, None),
                    Err(_) => continue,
                };
                if let Some((due, row)) = self.in_flight.remove(&id) {
                    done.push(Done {
                        virt_ns: now - due,
                        end_ns: now,
                        ok: label == Some(self.reference[row]),
                    });
                }
            }
        }
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Goodput: answers that were correct and within the latency limit,
    /// per virtual second of the sample.
    fn virt_ops_per_s(&self, sample: &[Done]) -> f64 {
        let good = sample
            .iter()
            .filter(|d| d.ok && d.virt_ns <= LATENCY_LIMIT_NS)
            .count();
        let end = sample.iter().map(|d| d.end_ns).max().unwrap_or(0);
        good as f64 / (end.saturating_sub(self.phase_start_ns).max(1) as f64 / 1e9)
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "gateway.generator_late_max_ms",
            self.late_max_ns as f64 / 1e6,
        )]
    }

    fn split_check(
        &self,
        layers: &Layers,
        root_ns: u64,
        _: u64,
        _: &Calibration,
    ) -> (String, bool) {
        let covered: u64 = layers
            .iter()
            .filter(|(name, _)| {
                name.starts_with("gateway.")
                    || name.starts_with("shield.net.")
                    || name.starts_with("core.serving.")
            })
            .map(|(_, l)| l.self_ns)
            .sum();
        let share = covered as f64 / root_ns.max(1) as f64;
        (
            format!(
                "gateway + network shield + serving codec cover {:.1}% of the op wall (predicted >= 50%)",
                share * 100.0
            ),
            share >= 0.5,
        )
    }
}
