//! Regenerates **Figure 4**: % speedup over single-threaded execution for
//! lock-based threading, VTM, Victim-VTM, Copy-PTM and Select-PTM on the
//! five SPLASH-2 kernels.
//!
//! ```text
//! cargo run -p ptm-bench --release --bin fig4
//! PTM_SCALE=tiny cargo run -p ptm-bench --bin fig4    # quick look
//! ```

use ptm_bench::{average, option, scale_from_env, speedup_bars};
use ptm_sim::SystemKind;
use ptm_workloads::splash2;

fn main() {
    let scale = scale_from_env();
    let mut systems: Vec<SystemKind> = SystemKind::figure4().to_vec();
    // PTM_EXTENSIONS=1 appends the LogTM extension backend as an extra bar.
    let on = |v: &str| match v {
        "1" => Ok(()),
        _ => Err(format!("invalid value {v:?}: expected 1")),
    };
    if option("PTM_EXTENSIONS", on).is_some() {
        systems.push(SystemKind::LogTm);
    }
    println!("Figure 4 — % speedup over one thread (scale: {scale:?})\n");
    print!("{:<8}", "app");
    for s in &systems {
        print!("{:>14}", s.label());
    }
    println!();

    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for w in splash2(scale) {
        let (_serial, bars) = speedup_bars(&w, &systems);
        print!("{:<8}", w.name);
        for (i, b) in bars.iter().enumerate() {
            print!("{:>13.0}%", b.speedup_pct);
            columns[i].push(b.speedup_pct);
        }
        println!();
    }
    print!("{:<8}", "Average");
    for col in &columns {
        print!("{:>13.0}%", average(col));
    }
    println!();
    println!("\npaper averages: 4p-locks 134%, VTM (collapses on fft/ocean), VC-VTM 72%,");
    println!("                Copy-PTM 116%, Sel-PTM 220%");
    println!("expected shape: Sel-PTM > locks ≈ Copy-PTM > VC-VTM > VTM;");
    println!("                VTM worst on overflow/commit-heavy apps (fft, ocean)");
}
