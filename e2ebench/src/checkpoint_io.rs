//! `checkpoint_io`: a seeded mix of journaled writes, whole-file reads,
//! range reads and clean remounts over a fixed file set in one
//! hardware enclave's EncryptAuth fs shield.
//!
//! Chosen because nothing else measures the fs shield: model publish and
//! deploy bypass it, and Figure 8 checkpoints are only ~126 KB. This
//! workload is seal/write-heavy where `cold_start` is open/read-heavy.

use crate::calibrate::Calibration;
use crate::trace::Tracer;
use crate::{Done, Layers, Workload};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use std::sync::Arc;

const KIB: usize = 1024;
/// Size class of each file; every write of a file is jittered by up to
/// ±1/64 of its class.
const SIZES: [usize; 6] = [
    64 * KIB,
    256 * KIB,
    KIB * KIB,
    2 * KIB * KIB,
    4 * KIB * KIB,
    8 * KIB * KIB,
];
const FILES: usize = SIZES.len();
/// Ops per round: per file one write, one whole read and one range
/// read, plus one remount. Seeds change the order, contents, sizes and
/// offsets, never the mix.
pub const ROUND: usize = 3 * FILES + 1;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(usize),
    Read(usize),
    RangeRead(usize),
    Remount,
}

pub struct CheckpointIo {
    clock: SimClock,
    telemetry: Telemetry,
    enclave: Arc<Enclave>,
    store: UntrustedStore,
    fs: FsShield,
    rng: StdRng,
    /// Seeded content; file versions are slices of it.
    pool: Vec<u8>,
    /// Last committed `(offset into pool, length)` per file.
    committed: Vec<(usize, usize)>,
    round: Vec<Op>,
}

fn path(file: usize) -> String {
    format!("/ckpt/file{file}")
}

impl CheckpointIo {
    fn expected(&self, file: usize) -> &[u8] {
        let (off, len) = self.committed[file];
        &self.pool[off..off + len]
    }

    fn write(&mut self, file: usize, tr: &mut Tracer) -> bool {
        let size = SIZES[file];
        let len = size - size / 64 + self.rng.gen_range(0..=size / 32);
        let off = self.rng.gen_range(0..=self.pool.len() - len);
        let data = &self.pool[off..off + len];
        tr.add_bytes("shield.fs.write", len as u64);
        let fs = &mut self.fs;
        let ok = tr
            .time("shield.fs.write", || fs.write(&path(file), data))
            .is_ok();
        if ok {
            self.committed[file] = (off, len);
        }
        ok
    }

    fn read(&mut self, file: usize, tr: &mut Tracer) -> bool {
        let got = tr.time("shield.fs.read", || self.fs.read(&path(file)));
        let Ok(got) = got else { return false };
        tr.add_bytes("shield.fs.read", got.len() as u64);
        tr.time("bench.verify", || got == self.expected(file))
    }

    /// A record lookup: a 4 KiB header read, then the 32 KiB record it
    /// describes, which starts in the chunk the header read decrypted
    /// (the chunk cache's case).
    fn range_read(&mut self, file: usize, tr: &mut Tracer) -> bool {
        let size = self.committed[file].1;
        let len = (32 * KIB).min(size);
        let off = self.rng.gen_range(0..=size.min(512 * KIB) - len);
        [4 * KIB, len].into_iter().all(|n| {
            let got = tr.time("shield.fs.range_read", || {
                self.fs.read_range(&path(file), off as u64, n as u64)
            });
            let Ok(got) = got else { return false };
            tr.add_bytes("shield.fs.range_read", got.len() as u64);
            got == self.expected(file)[off..off + n]
        })
    }

    /// Clean remount: the host restarts and a new shield instance in the
    /// same enclave recovers the file table from the sealed manifest.
    fn remount(&mut self, tr: &mut Tracer) -> bool {
        self.store.host_restart();
        let (enclave, store) = (self.enclave.clone(), self.store.clone());
        match tr.time("shield.fs.recover", || FsShield::recover(enclave, store)) {
            Ok((fs, report)) => {
                self.fs = fs;
                report.files == FILES
            }
            Err(_) => false,
        }
    }

    fn new_round(&mut self) {
        let mut ops: Vec<Op> = (0..FILES)
            .flat_map(|f| [Op::Write(f), Op::Read(f), Op::RangeRead(f)])
            .collect();
        ops.push(Op::Remount);
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.rng.gen_range(0..=i));
        }
        // Popped from the back.
        self.round = ops;
    }
}

impl Workload for CheckpointIo {
    // Six rounds: enough for the RSS high-water mark to meet its
    // worst op order on every seed.
    const SAMPLE: usize = 6 * ROUND;
    const WINDOW: usize = ROUND;

    fn setup(seed: u64, traced: bool, tr: &mut Tracer) -> Result<Self, String> {
        let clock = SimClock::new();
        let telemetry = if traced {
            clock.telemetry()
        } else {
            Telemetry::disabled()
        };
        let platform = Platform::builder()
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"e2ebench-checkpoint-io")
                    .name("ckpt")
                    .build(),
                ExecutionMode::Hardware,
            )
            .map_err(|e| format!("enclave: {e}"))?;
        let store = UntrustedStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = vec![0u8; 12 * KIB * KIB];
        rng.fill_bytes(&mut pool);
        let mut w = CheckpointIo {
            clock,
            telemetry,
            fs: FsShield::new(enclave.clone(), store.clone()),
            enclave,
            store,
            rng,
            pool,
            committed: vec![(0, 0); FILES],
            round: Vec::new(),
        };
        for file in 0..FILES {
            if !w.write(file, tr) {
                return Err(format!("initial write of {} failed", path(file)));
            }
        }
        if !w.remount(tr) {
            return Err("warm-up remount failed".into());
        }
        Ok(w)
    }

    fn step(&mut self, tr: &mut Tracer, done: &mut Vec<Done>) {
        if self.round.is_empty() {
            self.new_round();
        }
        let op = self.round.pop().expect("refilled above");
        let t0 = self.clock.now_ns();
        let ok = match op {
            Op::Write(file) => self.write(file, tr),
            Op::Read(file) => self.read(file, tr),
            Op::RangeRead(file) => self.range_read(file, tr),
            Op::Remount => self.remount(tr),
        };
        let end_ns = self.clock.now_ns();
        done.push(Done {
            virt_ns: end_ns - t0,
            end_ns,
            ok,
        });
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn split_check(
        &self,
        layers: &Layers,
        root_ns: u64,
        _: u64,
        _: &Calibration,
    ) -> (String, bool) {
        let fs: u64 = layers
            .iter()
            .filter(|(name, _)| name.starts_with("shield.fs."))
            .map(|(_, l)| l.self_ns)
            .sum();
        let share = fs as f64 / root_ns.max(1) as f64;
        (
            format!(
                "FsShield calls cover {:.1}% of the op wall (predicted >= 50%)",
                share * 100.0
            ),
            share >= 0.5,
        )
    }
}
