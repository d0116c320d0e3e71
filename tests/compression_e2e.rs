//! End-to-end compression on real solver fields (the paper's §6.2
//! methodology: ratio measured against an instantaneous flow sample, error
//! in the weighted-L2/RMS norm).

use rbx::basis::ModalBasis;
use rbx::comm::SingleComm;
use rbx::compress::{
    compress_field, decompress_field, weighted_l2_error, Codec, CompressionConfig,
};
use rbx::core::{Simulation, SolverConfig};
use rbx::mesh::GeomFactors;
use std::sync::OnceLock;

/// The solver output the tests compress, owned (no solver borrows).
struct Developed {
    t: Vec<f64>,
    uz: Vec<f64>,
    time: f64,
    geom: GeomFactors,
    basis: ModalBasis,
}

/// A developed-ish RBC state from a short run, computed once per test
/// binary: the 60-step run dominates the tests' cost.
fn developed_fields() -> &'static Developed {
    static DEVELOPED: OnceLock<Developed> = OnceLock::new();
    DEVELOPED.get_or_init(|| {
        let case = rbx::core::rbc_box_case(2.0, 3, 3, false, 1);
        let comm = SingleComm::new();
        let cfg = SolverConfig {
            ra: 1e5,
            order: 6,
            dt: 2e-3,
            ic_noise: 0.05,
            ..Default::default()
        };
        let order = cfg.order;
        let mut sim = Simulation::new(cfg, &case.mesh, &case.part, case.elems[0].clone(), &comm);
        sim.init_rbc();
        for _ in 0..60 {
            assert!(sim.step().converged);
        }
        Developed {
            t: sim.state.t.clone(),
            uz: sim.state.u[2].clone(),
            time: sim.state.time,
            geom: sim.geom.clone(),
            basis: ModalBasis::new(order + 1),
        }
    })
}

#[test]
fn error_bounds_hold_on_solver_fields() {
    let d = developed_fields();
    for eps in [0.001, 0.01, 0.05] {
        let cfg = CompressionConfig {
            error_bound: eps,
            quant_bits: None,
            codec: Codec::Range,
        };
        let c = compress_field(&d.t, &d.geom, &d.basis, &cfg);
        let recon = decompress_field(&c, &d.basis);
        let err = weighted_l2_error(&d.t, &recon, &d.geom.mass);
        assert!(
            err <= 1.5 * eps + 1e-12,
            "ε = {eps}: measured error {err:.4e}"
        );
        // Tighter bounds keep more data.
        assert!(c.kept_fraction > 0.0 && c.kept_fraction <= 1.0);
    }
}

#[test]
fn paper_operating_point_reduction() {
    // The paper's Fig. 5 point: strong reduction at 2.5 % error. Our
    // laptop-Ra fields are smoother than Ra = 10¹¹ turbulence, so the
    // achievable reduction is at least as large.
    let d = developed_fields();
    let cfg = CompressionConfig {
        error_bound: 0.025,
        quant_bits: Some(16),
        codec: Codec::Range,
    };
    let c = compress_field(&d.uz, &d.geom, &d.basis, &cfg);
    let recon = decompress_field(&c, &d.basis);
    let err = weighted_l2_error(&d.uz, &recon, &d.geom.mass);
    assert!(
        c.reduction_percent() > 90.0,
        "reduction only {:.1} %",
        c.reduction_percent()
    );
    assert!(err < 0.04, "error {err:.4}");
}

#[test]
fn codecs_agree_on_reconstruction() {
    // The lossless stage must not change the reconstruction at all.
    let d = developed_fields();
    let mut reference: Option<Vec<f64>> = None;
    for codec in [Codec::Raw, Codec::Rle, Codec::Range] {
        let cfg = CompressionConfig {
            error_bound: 0.01,
            quant_bits: Some(16),
            codec,
        };
        let c = compress_field(&d.t, &d.geom, &d.basis, &cfg);
        let recon = decompress_field(&c, &d.basis);
        match &reference {
            None => reference = Some(recon),
            Some(r) => {
                for (a, b) in r.iter().zip(&recon) {
                    assert_eq!(a.to_bits(), b.to_bits(), "codec {codec:?} changed data");
                }
            }
        }
    }
}

#[test]
fn entropy_codecs_beat_raw() {
    let d = developed_fields();
    let mut sizes = std::collections::HashMap::new();
    for codec in [Codec::Raw, Codec::Rle, Codec::Range] {
        let cfg = CompressionConfig {
            error_bound: 0.01,
            quant_bits: Some(16),
            codec,
        };
        let c = compress_field(&d.t, &d.geom, &d.basis, &cfg);
        sizes.insert(format!("{codec:?}"), c.data.len());
    }
    let raw = sizes["Raw"];
    assert!(sizes["Rle"] < raw, "RLE {} !< raw {raw}", sizes["Rle"]);
    assert!(
        sizes["Range"] < raw,
        "Range {} !< raw {raw}",
        sizes["Range"]
    );
}

#[test]
fn compressed_payload_survives_io_roundtrip() {
    // Compression output stored through the BPL container and recovered.
    use rbx::io::{read_bpl, write_bpl, StepData, Variable};
    let d = developed_fields();
    let cfg = CompressionConfig::default();
    let c = compress_field(&d.t, &d.geom, &d.basis, &cfg);
    let dir = std::env::temp_dir().join("rbx_compress_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("field.bpl");
    write_bpl(
        &path,
        &[StepData {
            step: 1,
            time: d.time,
            vars: vec![Variable::bytes(
                "t_compressed",
                vec![c.data.len() as u64],
                c.data.clone(),
            )],
        }],
    )
    .unwrap();
    let steps = read_bpl(&path).unwrap();
    let payload = match &steps[0].var("t_compressed").unwrap().data {
        rbx::io::VarData::Bytes(b) => b.clone(),
        _ => panic!("wrong type"),
    };
    let c2 = rbx::compress::Compressed {
        data: payload,
        n: c.n,
        nelv: c.nelv,
        codec: c.codec,
        kept_fraction: c.kept_fraction,
    };
    let a = decompress_field(&c, &d.basis);
    let b = decompress_field(&c2, &d.basis);
    assert_eq!(a, b);
}
