//! Calibration: wall-clock throughput of the public crypto and shield
//! primitives at the sizes the workloads feed them, printed next to the
//! cost-model constant that stands for each in virtual time.

use rand::{RngCore, SeedableRng};
use securetf_crypto::aead::{self, Key, Nonce};
use securetf_crypto::sha256;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::{CostModel, EnclaveImage, ExecutionMode, Platform};
use std::time::Instant;

/// Size of the Inception-v4 model blob `cold_start` publishes and opens.
pub const BULK_BYTES: usize = 163 * 1024 * 1024;
/// The fs shield's chunk size.
const CHUNK: usize = 64 * 1024;
/// One `serve_mnist` request record: 784 f32 pixels plus framing.
const RECORD: usize = 3 * 1024;

/// Measured throughputs, MB/s (10^6 bytes per second).
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    pub sha256_bulk: f64,
    pub seal_bulk: f64,
    pub open_bulk: f64,
    pub seal_64k: f64,
    pub seal_3k: f64,
    /// Secure-channel send plus receive of 3 KB records.
    pub net_3k: f64,
    pub fs_write_8m: f64,
    pub fs_read_8m: f64,
}

fn mb_s(bytes: usize, t: Instant) -> f64 {
    bytes as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Seals `buf` in `size`-byte records under fresh nonces.
fn seal_records(key: &Key, buf: &mut [u8], size: usize) {
    for (i, rec) in buf.chunks_mut(size).enumerate() {
        let nonce = Nonce::from_counter(0xCA1B, i as u64);
        std::hint::black_box(aead::seal_in_place_detached(key, &nonce, rec, b"cal"));
    }
}

pub fn run(seed: u64) -> Calibration {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCA1B);
    let mut blob = vec![0u8; BULK_BYTES];
    rng.fill_bytes(&mut blob);
    let key = Key::from_bytes([7; 32]);
    let nonce = Nonce::from_counter(0xCA1B, u64::MAX);
    let mut cal = Calibration::default();

    let t = Instant::now();
    std::hint::black_box(sha256::digest(&blob));
    cal.sha256_bulk = mb_s(BULK_BYTES, t);
    let t = Instant::now();
    let tag = aead::seal_in_place_detached(&key, &nonce, &mut blob, b"bulk");
    cal.seal_bulk = mb_s(BULK_BYTES, t);
    let t = Instant::now();
    let opened = aead::open_in_place_detached(&key, &nonce, &mut blob, &tag, b"bulk");
    cal.open_bulk = mb_s(BULK_BYTES, t);
    assert!(opened.is_ok(), "calibration blob must open");

    let small = &mut blob[..32 * 1024 * 1024];
    let t = Instant::now();
    seal_records(&key, small, CHUNK);
    cal.seal_64k = mb_s(small.len(), t);
    let t = Instant::now();
    seal_records(&key, small, RECORD);
    cal.seal_3k = mb_s(small.len(), t);

    let platform = Platform::builder().build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder()
                .code(b"e2ebench-calibration")
                .build(),
            ExecutionMode::Hardware,
        )
        .expect("calibration enclave");
    let (mut server, mut client) = securetf_gateway::chaos::attested_pair(enclave.clone());
    let records = 4096;
    let t = Instant::now();
    for rec in blob.chunks(RECORD).take(records) {
        client.send(rec).expect("calibration send");
        let got = server.try_recv().expect("calibration recv");
        assert_eq!(got.as_deref(), Some(rec), "calibration record round trip");
    }
    cal.net_3k = mb_s(records * RECORD, t);

    let mut fs = FsShield::new(enclave, UntrustedStore::new());
    let file = 8 * 1024 * 1024;
    let t = Instant::now();
    for (i, data) in blob.chunks(file).take(4).enumerate() {
        fs.write(&format!("/cal/{i}"), data)
            .expect("calibration write");
    }
    cal.fs_write_8m = mb_s(4 * file, t);
    let t = Instant::now();
    for (i, data) in blob.chunks(file).take(4).enumerate() {
        let got = fs.read(&format!("/cal/{i}")).expect("calibration read");
        assert!(
            got == data,
            "calibration read must return the written bytes"
        );
    }
    cal.fs_read_8m = mb_s(4 * file, t);

    print_table(&cal);
    cal
}

fn print_table(cal: &Calibration) {
    let model = CostModel::default();
    let crypto = model.shield_crypto_bytes_per_sec / 1e6;
    let net = model.shield_net_bytes_per_sec / 1e6;
    println!("calibration (wall MB/s vs the virtual-time constant that stands for it):");
    let rows = [
        ("sha256 163 MiB", cal.sha256_bulk, crypto, "shield crypto"),
        ("aead seal 163 MiB", cal.seal_bulk, crypto, "shield crypto"),
        ("aead open 163 MiB", cal.open_bulk, crypto, "shield crypto"),
        (
            "aead seal 64 KiB chunks",
            cal.seal_64k,
            crypto,
            "shield crypto",
        ),
        (
            "aead seal 3 KB records",
            cal.seal_3k,
            crypto,
            "shield crypto",
        ),
        (
            "channel send+recv 3 KB",
            cal.net_3k,
            net,
            "network shield (default)",
        ),
        (
            "channel send+recv 3 KB",
            cal.net_3k,
            12.0,
            "network shield (Fig. 8)",
        ),
        (
            "FsShield write 8 MiB",
            cal.fs_write_8m,
            crypto,
            "shield crypto",
        ),
        (
            "FsShield read 8 MiB",
            cal.fs_read_8m,
            crypto,
            "shield crypto",
        ),
    ];
    for (what, measured, constant, stands_for) in rows {
        println!(
            "  {what:<26} {measured:>10.1} MB/s   model {constant:>8.1} MB/s ({stands_for}, measured/model {:.3})",
            measured / constant
        );
    }
}
