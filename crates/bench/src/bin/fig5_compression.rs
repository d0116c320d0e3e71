//! **Fig. 5** — in-situ compression of a velocity field.
//!
//! The paper compresses a streamwise velocity field of an RBC run at
//! Ra = 10¹¹ to 3 % of its size (97 % reduction) with 2.5 % relative
//! weighted-L2 error, and recommends conservative production levels of
//! 85–90 % reduction. This experiment:
//!
//! 1. develops an RBC state with the real solver;
//! 2. sweeps the compressor's error bound and reports the
//!    reduction-vs-error curve, locating the paper's operating point and
//!    the conservative band;
//! 3. writes before/after mid-plane slices of the vertical velocity (the
//!    paper's visual comparison — "no appreciable differences").
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin fig5_compression [steps]
//! ```

use rbx::basis::ModalBasis;
use rbx::compress::{
    compress_field, decompress_field, weighted_l2_error, Codec, CompressionConfig,
};
use rbx::core::slice::{sample_slice, write_slice_csv, write_slice_ppm, SliceAxis};
use rbx_bench::{developed_box, out_dir, write_csv};

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    println!("Fig. 5 reproduction: lossy compression of a velocity field");
    println!("(developing the flow for {steps} steps first)\n");
    let sim = developed_box(6, 2, steps);
    let basis = ModalBasis::new(sim.cfg.order + 1);
    let field = &sim.state.u[2]; // vertical velocity (the convective field)

    println!("error-bound sweep (16-bit quantization, range coder):");
    println!("  bound      kept     reduction   measured err");
    let mut rows = Vec::new();
    let mut paper_point: Option<(f64, f64, f64)> = None;
    for eps in [1e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1] {
        let cfg = CompressionConfig {
            error_bound: eps,
            quant_bits: Some(16),
            codec: Codec::Range,
        };
        let c = compress_field(field, &sim.geom, &basis, &cfg);
        let recon = decompress_field(&c, &basis);
        let err = weighted_l2_error(field, &recon, &sim.geom.mass);
        println!(
            "  {eps:<8.1e} {:>7.3} %   {:>7.2} %   {:>9.3} %",
            100.0 * c.kept_fraction,
            c.reduction_percent(),
            100.0 * err
        );
        rows.push(format!(
            "{eps},{},{},{}",
            c.kept_fraction,
            c.reduction_percent(),
            err
        ));
        if eps == 2.5e-2 {
            paper_point = Some((c.reduction_percent(), err, c.kept_fraction));
        }
    }

    let (reduction, err, kept) = paper_point.expect("paper operating point in sweep");
    println!("\npaper operating point (error bound 2.5 %):");
    println!(
        "  reduction {reduction:.1} % at measured error {:.2} % (kept {:.2} % of modes)",
        100.0 * err,
        100.0 * kept
    );
    println!("  paper: 97 % reduction at 2.5 % relative error — shape check: ");
    println!(
        "  {} (≥ 90 % reduction while respecting the bound)",
        if reduction >= 90.0 && err <= 0.03 {
            "PASS"
        } else {
            "DIFFERS"
        }
    );
    println!("\nconservative band (paper: 85–90 % reduction for high-fidelity post-processing):");
    // Find the error bounds bracketing 85–90 % reduction from the sweep.
    for row in &rows {
        let parts: Vec<&str> = row.split(',').collect();
        let red: f64 = parts[2].parse().unwrap();
        if (85.0..=92.0).contains(&red) {
            println!(
                "  bound {:>8} → reduction {red:.1} %, error {:.3} %",
                parts[0],
                100.0 * parts[3].parse::<f64>().unwrap()
            );
        }
    }

    // ---- visual comparison (2-D slice, original vs reconstructed) --------
    let dir = out_dir("fig5_compression");
    let cfg = CompressionConfig {
        error_bound: 2.5e-2,
        quant_bits: Some(16),
        codec: Codec::Range,
    };
    let c = compress_field(field, &sim.geom, &basis, &cfg);
    let recon = decompress_field(&c, &basis);
    let z0 = 0.5;
    let orig_slice = sample_slice(&sim.geom, field, SliceAxis::Y, 1.0);
    let recon_slice = sample_slice(&sim.geom, &recon, SliceAxis::Y, 1.0);
    write_slice_csv(&orig_slice, &dir.join("uz_original.csv")).unwrap();
    write_slice_csv(&recon_slice, &dir.join("uz_reconstructed.csv")).unwrap();
    write_slice_ppm(&orig_slice, 256, 128, &dir.join("uz_original.ppm")).unwrap();
    write_slice_ppm(&recon_slice, 256, 128, &dir.join("uz_reconstructed.ppm")).unwrap();
    let _ = z0;

    write_csv(
        &dir.join("fig5_sweep.csv"),
        "error_bound,kept_fraction,reduction_pct,measured_error",
        &rows,
    );
    println!("\nwrote sweep + before/after slices to {}", dir.display());
}
