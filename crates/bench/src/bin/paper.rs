//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper --all [--scale F] [--out DIR]      # every experiment
//! paper fig7 table2 [--scale F]            # selected experiments
//! paper --list                             # show ids and titles
//! ```
//!
//! Results are printed as aligned tables and written as CSV files under
//! `--out` (default `results/`). `--scale` multiplies operation counts
//! (1.0 ≈ 200 k-op write workloads).

use std::time::Instant;

use shield_bench::experiments::{all_experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut out_dir = "results".to_string();
    let mut run_all = false;
    let mut list = false;
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => run_all = true,
            "--list" => list = true,
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| die("--out needs a path"));
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => selected.push(other.to_string()),
        }
        i += 1;
    }

    let experiments = all_experiments();
    if list || (!run_all && selected.is_empty()) {
        println!("Available experiments (run with `paper <id>…` or `paper --all`):");
        for e in &experiments {
            println!("  {:8} {}", e.id, e.title);
        }
        return;
    }

    let scale = Scale::new(scale);
    let chosen: Vec<_> = experiments
        .into_iter()
        .filter(|e| run_all || selected.iter().any(|s| s == e.id))
        .collect();
    if chosen.is_empty() {
        die("no matching experiments; try --list");
    }
    println!(
        "Running {} experiment(s) at scale {:.2} (results → {out_dir}/)",
        chosen.len(),
        scale.factor
    );
    let t0 = Instant::now();
    for e in chosen {
        println!("\n### {} — {}", e.id, e.title);
        let started = Instant::now();
        let tables = (e.run)(&scale);
        for table in &tables {
            print!("{}", table.render());
            match table.save_csv(&out_dir, scale.factor) {
                Ok(path) => println!("  → {path}"),
                Err(err) => eprintln!("  ! failed to save CSV: {err}"),
            }
        }
        match shield_bench::report::save_metrics_sidecar(&out_dir, e.id) {
            Ok(Some(path)) => println!("  → {path}"),
            Ok(None) => {}
            Err(err) => eprintln!("  ! failed to save metrics sidecar: {err}"),
        }
        println!("  ({:.1}s)", started.elapsed().as_secs_f64());
    }
    println!("\nAll done in {:.1}s.", t0.elapsed().as_secs_f64());
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
