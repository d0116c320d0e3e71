//! **Ablation** — lossless codec stage of the compression pipeline.
//!
//! The paper's compression is transform + truncate + lossless encode
//! (§5.2). This experiment isolates the lossless stage: identical
//! truncated/quantized payloads through each codec, comparing size and
//! encode/decode throughput — quantifying why an entropy stage is worth
//! having even after the variance-reducing transform.
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin ablation_codecs
//! ```

use rbx::basis::ModalBasis;
use rbx::compress::{compress_field, decompress_field, Codec, CompressionConfig};
use rbx_bench::{developed_box, out_dir, write_csv};
use std::time::Instant;

fn main() {
    println!("lossless codec ablation (same truncated payload through each codec)\n");
    let sim = developed_box(6, 2, 200);
    let basis = ModalBasis::new(sim.cfg.order + 1);
    let field = &sim.state.t;
    let raw_bytes = field.len() * 8;

    println!("  codec   bytes       vs raw field   encode [ms]   decode [ms]");
    let mut rows = Vec::new();
    for codec in [Codec::Raw, Codec::Rle, Codec::Range] {
        let cfg = CompressionConfig {
            error_bound: 0.01,
            quant_bits: Some(16),
            codec,
        };
        let t0 = Instant::now();
        let c = compress_field(field, &sim.geom, &basis, &cfg);
        let t_enc = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let recon = decompress_field(&c, &basis);
        let t_dec = t0.elapsed().as_secs_f64();
        assert_eq!(recon.len(), field.len());
        println!(
            "  {:<7} {:>9}   {:>10.2} %   {:>11.2}   {:>11.2}",
            format!("{codec:?}"),
            c.data.len(),
            100.0 * c.data.len() as f64 / raw_bytes as f64,
            1e3 * t_enc,
            1e3 * t_dec
        );
        rows.push(format!(
            "{codec:?},{},{},{t_enc},{t_dec}",
            c.data.len(),
            c.data.len() as f64 / raw_bytes as f64
        ));
    }
    println!("\n  (raw field: {} bytes)", raw_bytes);
    let dir = out_dir("ablation_codecs");
    write_csv(
        &dir.join("codecs.csv"),
        "codec,bytes,fraction_of_raw,encode_s,decode_s",
        &rows,
    );
    println!("wrote {}", dir.join("codecs.csv").display());
}
