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
//! A full run writes `BENCH_crypto.json`, stamped with commit, core count
//! and detected CPU features, for future PRs to diff against. `--smoke`
//! (the `bench-smoke` tier of `scripts/verify.sh`) shrinks the iteration
//! budget and writes under `target/` so it never touches the committed
//! file. `--out` overrides either.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use shield_crypto::aes::Aes128;
use shield_crypto::chacha20::ChaCha20;
use shield_crypto::{
    crc32c, reference, sha256, Algorithm, CipherContext, Dek, HmacKey, NONCE_LEN,
};

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

struct Config {
    smoke: bool,
    out: String,
}

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

fn parse_args() -> Result<Config, String> {
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = Some(args.next().ok_or_else(|| "--out needs a path".to_string())?);
            }
            "--help" | "-h" => {
                return Err("usage: crypto [--smoke] [--out BENCH_crypto.json]".to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Only a full run may land on the committed trajectory file.
    let default = if smoke { "target/BENCH_crypto_smoke.json" } else { "BENCH_crypto.json" };
    Ok(Config { smoke, out: out.unwrap_or_else(|| default.to_string()) })
}

/// Best-of-3 throughput of `f` over a `size`-byte buffer, in MiB/s. The
/// iteration count is sized so each timed pass processes a fixed byte
/// budget regardless of payload size.
fn measure_mib_s(size: usize, smoke: bool, mut f: impl FnMut(&mut [u8])) -> f64 {
    let mut buf = vec![0xabu8; size];
    let budget: usize = if smoke { 4 << 20 } else { 48 << 20 };
    let iters = (budget / size).max(3);
    f(&mut buf); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f(black_box(&mut buf));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (size as f64 * iters as f64) / best / (1024.0 * 1024.0)
}

/// The 4 KiB point of a `(size, MiB/s)` series — the one the gates read.
fn rate_at_4k(rates: &[(usize, f64)]) -> f64 {
    rates.iter().find(|(size, _)| *size == 4096).expect("4 KiB point").1
}

/// Best-of-3 per-call cost of `CipherContext::new`, in nanoseconds.
fn measure_init_ns(dek: &Dek, nonce: &[u8; NONCE_LEN], smoke: bool) -> f64 {
    let iters: u32 = if smoke { 20_000 } else { 200_000 };
    black_box(CipherContext::new(dek, nonce)); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(CipherContext::new(black_box(dek), nonce));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(iters)
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

/// The CPU features the kernels dispatch on, as detected at run time.
fn cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if shield_crypto::aes::batch_is_accelerated() {
        features.push("aes");
    }
    if shield_crypto::sha256::is_accelerated() {
        features.push("sha_ni");
    }
    if shield_crypto::crc32c::is_accelerated() {
        features.push("sse4.2+pclmulqdq");
    }
    features
}

fn rates_json(rates: &[(usize, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (size, mib_s)) in rates.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{size}\": {mib_s:.1}");
    }
    s.push('}');
    s
}

fn report_json(mode: &str, reports: &[AlgoReport], integrity: &[IntegrityReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"crypto_kernels\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"commit\": \"{}\",", shield_bench::report::commit());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let features: Vec<String> = cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    let _ = writeln!(s, "  \"cpu_features\": [{}],", features.join(", "));
    let _ = writeln!(s, "  \"unit_throughput\": \"MiB/s\",");
    let _ = writeln!(s, "  \"unit_init\": \"ns\",");
    let _ = writeln!(
        s,
        "  \"sizes\": [{}],",
        SIZES.map(|v| v.to_string()).join(", ")
    );
    s.push_str("  \"algorithms\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", r.slug);
        let _ = writeln!(s, "      \"cipher_init_ns\": {:.1},", r.init_ns);
        let _ = writeln!(s, "      \"batched_mib_s\": {},", rates_json(&r.batched));
        let _ = writeln!(s, "      \"scalar_mib_s\": {},", rates_json(&r.scalar));
        let _ = writeln!(s, "      \"speedup_4096\": {:.2}", r.speedup_4096);
        let _ = writeln!(s, "    }}{}", if i + 1 < reports.len() { "," } else { "" });
    }
    s.push_str("  },\n");
    s.push_str("  \"integrity\": {\n");
    for (i, r) in integrity.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", r.slug);
        let _ = writeln!(s, "      \"accelerated\": {},", r.accelerated);
        let _ = writeln!(s, "      \"hardware_mib_s\": {},", rates_json(&r.hardware));
        let _ = writeln!(s, "      \"reference_mib_s\": {},", rates_json(&r.reference));
        let _ = writeln!(s, "      \"speedup_4096\": {:.2}", r.speedup_4096);
        let _ = writeln!(s, "    }}{}", if i + 1 < integrity.len() { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    s
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if cfg.smoke { "smoke" } else { "full" };
    println!("crypto kernel bench ({mode} mode)");

    let reports: Vec<AlgoReport> = [Algorithm::Aes128Ctr, Algorithm::ChaCha20]
        .into_iter()
        .map(|algo| bench_algorithm(algo, cfg.smoke))
        .collect();

    for r in &reports {
        println!("  {} cipher_init: {:.0} ns/call", r.display, r.init_ns);
        for ((size, batched), (_, scalar)) in r.batched.iter().zip(r.scalar.iter()) {
            println!(
                "  {} xor_at {:>7} B: batched {:>8.1} MiB/s, scalar {:>8.1} MiB/s ({:.2}x)",
                r.display,
                size,
                batched,
                scalar,
                batched / scalar
            );
        }
    }

    let integrity = bench_integrity(cfg.smoke);
    for r in &integrity {
        for ((size, hardware), (_, reference)) in r.hardware.iter().zip(r.reference.iter()) {
            println!(
                "  {} {:>5} B: production {:>8.1} MiB/s, reference {:>8.1} MiB/s ({:.2}x)",
                r.slug,
                size,
                hardware,
                reference,
                hardware / reference
            );
        }
    }

    let json = report_json(mode, &reports, &integrity);
    if let Some(dir) = std::path::Path::new(&cfg.out).parent() {
        // `target/` may not exist yet when run from a fresh checkout.
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&cfg.out, &json) {
        eprintln!("failed to write {}: {e}", cfg.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cfg.out);

    let mut ok = true;
    for r in &reports {
        let min = match r.slug {
            "aes128ctr" => AES_MIN_SPEEDUP,
            _ => CHACHA_MIN_SPEEDUP,
        };
        if r.speedup_4096 < min {
            eprintln!(
                "FAIL: {} batched/scalar speedup on 4 KiB is {:.2}x, below the {min:.1}x gate",
                r.display, r.speedup_4096
            );
            ok = false;
        } else {
            println!(
                "ok: {} batched/scalar speedup on 4 KiB = {:.2}x (gate {min:.1}x)",
                r.display, r.speedup_4096
            );
        }
    }
    for r in &integrity {
        let Some(min) = r.min_speedup else { continue };
        if !r.accelerated {
            println!("skipped: {} gate — no sha_ni / sse4.2 on this CPU", r.slug);
        } else if r.speedup_4096 < min {
            eprintln!(
                "FAIL: {} hardware/reference on 4 KiB is {:.2}x, below the {min:.1}x gate",
                r.slug, r.speedup_4096
            );
            ok = false;
        } else {
            println!(
                "ok: {} hardware/reference speedup on 4 KiB = {:.2}x (gate {min:.1}x)",
                r.slug, r.speedup_4096
            );
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
