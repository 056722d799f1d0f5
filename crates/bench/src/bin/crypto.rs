//! Crypto kernel microbenchmark — the perf-regression harness for
//! DESIGN.md § perf kernels.
//!
//! Measures, for both ciphers:
//!   * `CipherContext::xor_at` throughput (MiB/s) at 64 B / 4 KiB / 1 MiB
//!     through the batched production kernels,
//!   * the same sizes through the scalar reference kernels
//!     (`shield_crypto::reference`), and
//!   * per-call cipher-init cost (ns) — the §3.2 quantity the WAL buffer
//!     amortizes, which batching deliberately leaves untouched;
//!
//! and for the integrity kernels (SHA-256, keyed HMAC-SHA256, CRC32C) the
//! dispatching production path against the scalar reference at 64 B and
//! 4 KiB.
//!
//! Gates (both modes): batched AES-CTR ≥2× and ChaCha20 ≥1.5× the scalar
//! reference on 4 KiB payloads; SHA-256 ≥3× and CRC32C ≥8× where the CPU
//! has SHA-NI / SSE4.2 (printed as skipped where it does not).
//!
//! A full run writes `BENCH_crypto.json` for future PRs to diff against;
//! `--smoke` (the `bench-smoke` tier of `scripts/verify.sh`) shrinks the
//! iteration budget.

use std::hint::black_box;
use std::process::ExitCode;

use shield_bench::harness::{best_of_3_ns, Bench};
use shield_core::JsonBuilder;
use shield_crypto::aes::Aes128;
use shield_crypto::chacha20::ChaCha20;
use shield_crypto::{crc32c, reference, sha256, Algorithm, CipherContext, Dek, HmacKey, NONCE_LEN};

/// Payload sizes measured, smallest to largest: a WAL-record-sized write,
/// an SST block, and a compaction-sized bulk run.
const SIZES: [usize; 3] = [64, 4096, 1 << 20];

/// Minimum batched/scalar ratio the gate accepts on 4 KiB payloads.
/// AES-CTR rides hardware rounds (≈20× here), ChaCha20 the 4-lane SIMD
/// quarter-round kernel (≈2×); both gates sit well under the measured
/// ratios so scheduler noise cannot flake the tier.
const AES_MIN_SPEEDUP: f64 = 2.0;
const CHACHA_MIN_SPEEDUP: f64 = 1.5;

/// Payload sizes for the integrity kernels: a WAL record and an SST block.
const INTEGRITY_SIZES: [usize; 2] = [64, 4096];

/// Minimum hardware/reference ratios on 4 KiB where the instructions
/// exist. SHA-NI measures ≈6× and the three-stream `crc32` loop ≈60×
/// here; HMAC is SHA-256 plus two compressions and has no gate of its own.
const SHA256_MIN_SPEEDUP: f64 = 3.0;
const CRC32C_MIN_SPEEDUP: f64 = 8.0;

/// One integrity kernel: production (dispatching) vs scalar reference.
struct IntegrityReport {
    slug: &'static str,
    /// Whether the production path runs a hardware kernel on this CPU.
    accelerated: bool,
    /// Gate on `speedup_4096` when accelerated, if the kernel has one.
    min_speedup: Option<f64>,
    hardware: Vec<(usize, f64)>,
    reference: Vec<(usize, f64)>,
    speedup_4096: f64,
}

struct AlgoReport {
    slug: &'static str,
    display: String,
    init_ns: f64,
    /// `(size, MiB/s)` per entry of [`SIZES`].
    batched: Vec<(usize, f64)>,
    scalar: Vec<(usize, f64)>,
    speedup_4096: f64,
}

/// Best-of-3 throughput of `f` over a `size`-byte buffer, in MiB/s. The
/// iteration count is sized so each timed pass processes a fixed byte
/// budget regardless of payload size.
fn measure_mib_s(size: usize, smoke: bool, mut f: impl FnMut(&mut [u8])) -> f64 {
    let mut buf = vec![0xabu8; size];
    let budget: usize = if smoke { 4 << 20 } else { 48 << 20 };
    f(&mut buf); // warmup
    let ns = best_of_3_ns((budget / size).max(3) as u32, || f(black_box(&mut buf)));
    size as f64 / (ns / 1e9) / (1024.0 * 1024.0)
}

/// The 4 KiB point of a `(size, MiB/s)` series — the one the gates read.
fn rate_at_4k(rates: &[(usize, f64)]) -> f64 {
    rates.iter().find(|(size, _)| *size == 4096).expect("4 KiB point").1
}

/// Best-of-3 per-call cost of `CipherContext::new`, in nanoseconds.
fn measure_init_ns(dek: &Dek, nonce: &[u8; NONCE_LEN], smoke: bool) -> f64 {
    black_box(CipherContext::new(dek, nonce)); // warmup
    best_of_3_ns(if smoke { 20_000 } else { 200_000 }, || {
        black_box(CipherContext::new(black_box(dek), nonce));
    })
}

fn bench_algorithm(algo: Algorithm, smoke: bool) -> AlgoReport {
    let dek = Dek::generate(algo);
    let mut nonce = [0u8; NONCE_LEN];
    shield_crypto::secure_random(&mut nonce);
    // Keep the nonce tail nonzero so the ChaCha20 counter-base fold is on
    // the measured path.
    nonce[12] |= 1;
    let ctx = CipherContext::new(&dek, &nonce);

    // Scalar-reference closure over the same key/nonce material.
    enum ScalarCipher {
        Aes(Aes128, [u8; 16]),
        ChaCha(ChaCha20),
    }
    let scalar_cipher = match algo {
        Algorithm::Aes128Ctr => {
            let key: [u8; 16] = dek.key_bytes().try_into().expect("AES-128 key length");
            ScalarCipher::Aes(Aes128::new(&key), nonce)
        }
        Algorithm::ChaCha20 => {
            let key: [u8; 32] = dek.key_bytes().try_into().expect("ChaCha20 key length");
            let n12: [u8; 12] = nonce[..12].try_into().expect("12-byte nonce prefix");
            let ctr = u32::from_le_bytes(nonce[12..].try_into().expect("4-byte tail"));
            ScalarCipher::ChaCha(ChaCha20::new_with_counter(&key, &n12, ctr))
        }
    };
    let scalar_xor = |offset: u64, data: &mut [u8]| match &scalar_cipher {
        ScalarCipher::Aes(schedule, base) => reference::aes_ctr_xor(schedule, base, offset, data),
        ScalarCipher::ChaCha(cipher) => reference::chacha20_xor(cipher, offset, data),
    };

    // Self-check: a diverged kernel pair must fail loudly, not get timed.
    {
        let original: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut a = original.clone();
        ctx.xor_at(13, &mut a);
        let mut b = original;
        scalar_xor(13, &mut b);
        assert_eq!(a, b, "batched and scalar {algo} kernels diverged");
    }

    let init_ns = measure_init_ns(&dek, &nonce, smoke);
    let batched: Vec<(usize, f64)> = SIZES
        .iter()
        .map(|&size| (size, measure_mib_s(size, smoke, |buf| ctx.xor_at(0, buf))))
        .collect();
    let scalar: Vec<(usize, f64)> = SIZES
        .iter()
        .map(|&size| (size, measure_mib_s(size, smoke, |buf| scalar_xor(0, buf))))
        .collect();
    let speedup_4096 = rate_at_4k(&batched) / rate_at_4k(&scalar);

    AlgoReport {
        slug: match algo {
            Algorithm::Aes128Ctr => "aes128ctr",
            Algorithm::ChaCha20 => "chacha20",
        },
        display: algo.to_string(),
        init_ns,
        batched,
        scalar,
        speedup_4096,
    }
}

fn bench_integrity(smoke: bool) -> Vec<IntegrityReport> {
    let key = [9u8; 32];
    let keyed = HmacKey::new(&key);
    // Self-check: a diverged kernel pair must fail loudly, not get timed.
    {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(sha256(&data), reference::sha256(&data), "SHA-256 kernels diverged");
        assert_eq!(keyed.mac(&[&data]), reference::hmac_sha256(&key, &data), "HMAC diverged");
        assert_eq!(crc32c(&data), reference::crc32c_extend(0, &data), "CRC32C kernels diverged");
    }
    let sha_ni = shield_crypto::sha256::is_accelerated();
    vec![
        integrity_row(
            "sha256",
            sha_ni,
            Some(SHA256_MIN_SPEEDUP),
            smoke,
            |buf| {
                black_box(sha256(buf));
            },
            |buf| {
                black_box(reference::sha256(buf));
            },
        ),
        integrity_row(
            "hmac_sha256",
            sha_ni,
            None,
            smoke,
            |buf| {
                black_box(keyed.mac(&[buf]));
            },
            |buf| {
                black_box(reference::hmac_sha256(&key, buf));
            },
        ),
        integrity_row(
            "crc32c",
            shield_crypto::crc32c::is_accelerated(),
            Some(CRC32C_MIN_SPEEDUP),
            smoke,
            |buf| {
                black_box(crc32c(buf));
            },
            |buf| {
                black_box(reference::crc32c_extend(0, buf));
            },
        ),
    ]
}

fn integrity_row(
    slug: &'static str,
    accelerated: bool,
    min_speedup: Option<f64>,
    smoke: bool,
    mut hardware: impl FnMut(&mut [u8]),
    mut reference: impl FnMut(&mut [u8]),
) -> IntegrityReport {
    let hardware: Vec<(usize, f64)> = INTEGRITY_SIZES
        .iter()
        .map(|&size| (size, measure_mib_s(size, smoke, &mut hardware)))
        .collect();
    let reference: Vec<(usize, f64)> = INTEGRITY_SIZES
        .iter()
        .map(|&size| (size, measure_mib_s(size, smoke, &mut reference)))
        .collect();
    let speedup_4096 = rate_at_4k(&hardware) / rate_at_4k(&reference);
    IntegrityReport { slug, accelerated, min_speedup, hardware, reference, speedup_4096 }
}

fn rates_json(j: &mut JsonBuilder, key: &str, rates: &[(usize, f64)]) {
    j.open_obj(key);
    for (size, mib_s) in rates {
        j.field_f64(&size.to_string(), *mib_s);
    }
    j.close_obj();
}

/// Prints one series pair and gates its 4 KiB ratio `speedup` against
/// `min`.
fn report_kernel(
    bench: &mut Bench,
    name: &str,
    (fast_label, fast): (&str, &[(usize, f64)]),
    (slow_label, slow): (&str, &[(usize, f64)]),
    speedup: f64,
    min: Option<f64>,
) {
    for ((size, a), (_, b)) in fast.iter().zip(slow) {
        println!(
            "  {name} {size:>7} B: {fast_label} {a:>8.1} MiB/s, {slow_label} {b:>8.1} MiB/s ({:.2}x)",
            a / b
        );
    }
    if let Some(min) = min {
        bench.engaged(
            &format!("{name} {fast_label}/{slow_label} on 4 KiB = {speedup:.2}x (gate {min:.1}x)"),
            speedup >= min,
        );
    }
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("crypto");
    let smoke = bench.smoke();
    let j = bench.json();
    j.field_str("unit_throughput", "MiB/s");
    j.field_str("unit_init", "ns");
    j.open_arr("sizes");
    for size in SIZES {
        j.item_u64(size as u64);
    }
    j.close_arr();

    j.open_obj("algorithms");
    for algo in [Algorithm::Aes128Ctr, Algorithm::ChaCha20] {
        let r = bench_algorithm(algo, smoke);
        println!("  {} cipher_init: {:.0} ns/call", r.display, r.init_ns);
        let j = bench.json();
        j.open_obj(r.slug);
        j.field_f64("cipher_init_ns", r.init_ns);
        rates_json(j, "batched_mib_s", &r.batched);
        rates_json(j, "scalar_mib_s", &r.scalar);
        j.field_f64("speedup_4096", r.speedup_4096);
        j.close_obj();
        let min = match algo {
            Algorithm::Aes128Ctr => AES_MIN_SPEEDUP,
            Algorithm::ChaCha20 => CHACHA_MIN_SPEEDUP,
        };
        report_kernel(
            &mut bench,
            &r.display,
            ("batched", &r.batched),
            ("scalar", &r.scalar),
            r.speedup_4096,
            Some(min),
        );
    }
    bench.json().close_obj();

    bench.json().open_obj("integrity");
    for r in bench_integrity(smoke) {
        let j = bench.json();
        j.open_obj(r.slug);
        j.field_bool("accelerated", r.accelerated);
        rates_json(j, "hardware_mib_s", &r.hardware);
        rates_json(j, "reference_mib_s", &r.reference);
        j.field_f64("speedup_4096", r.speedup_4096);
        j.close_obj();
        if r.min_speedup.is_some() && !r.accelerated {
            println!("skipped: {} gate — no sha_ni / sse4.2 on this CPU", r.slug);
        }
        report_kernel(
            &mut bench,
            r.slug,
            ("production", &r.hardware),
            ("reference", &r.reference),
            r.speedup_4096,
            r.min_speedup.filter(|_| r.accelerated),
        );
    }
    bench.json().close_obj();
    bench.finish()
}
