//! **§5.1 auto-tuning** — per-kernel serial/pooled crossover sweep.
//!
//! The paper's device layer auto-tunes key kernels per architecture. The
//! CPU analogue has two parts. First, the degree-specialized tensor
//! kernels: the derivative contraction carries const-generic
//! specializations for the production node counts (now including n = 10),
//! measured here against the generic path. Second — the part that feeds
//! back into the runtime — every pooled hot kernel (Helmholtz apply, dot
//! product, gather-scatter local phase, element-FDM sweep) is swept over
//! ascending work sizes serial vs pooled to locate its dispatch-overhead
//! *crossover*: the smallest size at which waking the pool beats running
//! inline. The crossovers are emitted as a schema-valid `rbx.bench.v1`
//! record and as a `tuning.json` consumable by `run_dns --tuning`, which
//! installs them as the process-wide grain gates
//! ([`rbx::device::KernelTuning`]).
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin autotune_kernels -- \
//!     --threads 4 --out out/autotune/autotune.json \
//!     --tuning-out out/autotune/tuning.json
//! ```

use rbx::basis::{autotune_deriv, sweep_crossover, CrossoverSweep};
use rbx::comm::SingleComm;
use rbx::device::{set_tuning, KernelTuning, WorkerPool};
use rbx::gs::{GatherScatter, GsOp};
use rbx::la::helmholtz::{HelmholtzOp, HelmholtzScratch};
use rbx::la::ops::{DotProduct, ElemLayout};
use rbx::la::ElementFdm;
use rbx::mesh::generators::box_mesh;
use rbx::mesh::GeomFactors;
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::{bench_record, validate_bench};
use rbx_bench::out_dir;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    threads: usize,
    quick: bool,
    out: Option<PathBuf>,
    tuning_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        quick: false,
        out: None,
        tuning_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("autotune_kernels: missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                args.threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("autotune_kernels: invalid --threads");
                    std::process::exit(2);
                })
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--tuning-out" => args.tuning_out = Some(PathBuf::from(value("--tuning-out"))),
            "--help" | "-h" => {
                println!("flags: --quick --threads N --out FILE.json --tuning-out FILE.json");
                std::process::exit(0);
            }
            other => {
                eprintln!("autotune_kernels: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Element-count ladder shared by the element-loop kernels, and the box
/// dimensions producing each count.
const ELEM_LADDER: [(usize, [usize; 3]); 6] = [
    (1, [1, 1, 1]),
    (4, [2, 2, 1]),
    (8, [2, 2, 2]),
    (18, [3, 3, 2]),
    (27, [3, 3, 3]),
    (64, [4, 4, 4]),
];

fn main() {
    let args = parse_args();
    // Disable every grain gate for this process: the sweep must measure
    // the *real* pooled dispatch cost at every size, not the gated
    // fallback the measurements exist to calibrate.
    let installed = set_tuning(KernelTuning {
        helmholtz_elems: 0,
        fdm_elems: 0,
        gs_groups: 0,
        dot_len: 0,
        elemwise_len: 0,
        grad_elems: 0,
    });
    assert!(
        installed,
        "autotune must install its tuning before any kernel runs"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if args.quick { 5 } else { 20 };
    let pool = WorkerPool::new(args.threads);
    let comm = SingleComm::new();
    let p = 7usize; // representative production degree (n = 8 nodes)

    println!(
        "autotune_kernels: {} host cores, pool of {} threads, {} reps, simd={}\n",
        cores,
        pool.threads(),
        reps,
        rbx::basis::simd::level_name()
    );

    // --- Part 1: degree specialization report (generic vs dispatched) ---
    println!("  deriv_x specialization: n (pts)  generic [us]  dispatched [us]  speedup");
    for n in [4usize, 5, 6, 7, 8, 10, 12] {
        let r = autotune_deriv(n, 64, reps);
        let specialized = matches!(n, 4 | 6 | 8 | 10 | 12);
        println!(
            "    n={n:<2} {}  {:>10.2}  {:>13.2}  {:>6.2}x",
            if specialized { "[spec]" } else { "[gen] " },
            1e6 * r.generic_secs,
            1e6 * r.dispatched_secs,
            r.speedup()
        );
    }
    println!();

    // --- Part 2: per-kernel serial/pooled crossover sweeps ---------------
    let mut rows: Vec<Vec<Value>> = Vec::new();
    fn record_sweep(rows: &mut Vec<Vec<Value>>, kernel: &str, sweep: &CrossoverSweep) {
        for pt in &sweep.points {
            rows.push(vec![
                Value::str(kernel),
                Value::int(pt.size as u64),
                Value::num(pt.serial_us),
                Value::num(pt.pooled_us),
                Value::num(pt.speedup()),
            ]);
        }
        match sweep.crossover {
            Some(c) => println!("  {kernel:<12} crossover at {c}"),
            None => println!("  {kernel:<12} pooling never won (inline always)"),
        }
    }

    // Helmholtz apply + FDM sweep: sweep the element-count ladder. The
    // meshes/operators are prebuilt so closures only run the kernel.
    let mut helm_setups = Vec::new();
    for &(nelv, [bx, by, bz]) in &ELEM_LADDER {
        let mesh = box_mesh(bx, by, bz, [0., 1.], [0., 1.], [0., 1.], false, false);
        let part = vec![0usize; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let geom = GeomFactors::new(&mesh, p);
        let gs = GatherScatter::build(&mesh, p, &part, &my, &comm);
        let n = geom.total_nodes();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 31 % 97) as f64) * 0.01 - 0.4)
            .collect();
        helm_setups.push((nelv, geom, gs, u));
    }
    let sizes: Vec<usize> = ELEM_LADDER.iter().map(|&(n, _)| n).collect();
    let find = |size: usize| {
        helm_setups
            .iter()
            .find(|(nelv, ..)| *nelv == size)
            .expect("ladder size prebuilt")
    };

    let nmax = helm_setups.iter().map(|s| s.3.len()).max().unwrap();
    let mask = vec![1.0f64; nmax];
    let helm_sweep = {
        // Separate output buffers: both closures stay alive for the whole
        // sweep, so they cannot share one mutable scratch.
        let mut y1 = vec![0.0; nmax];
        let mut y2 = vec![0.0; nmax];
        let mut scratch = HelmholtzScratch::default();
        sweep_crossover(
            &sizes,
            reps,
            |size| {
                let (_, geom, gs, u) = find(size);
                let op = HelmholtzOp {
                    geom,
                    gs,
                    mask: &mask[..u.len()],
                    h1: 1.0,
                    h2: 0.5,
                };
                op.apply_local(u, &mut y1[..u.len()], &mut scratch);
            },
            |size| {
                let (_, geom, gs, u) = find(size);
                let op = HelmholtzOp {
                    geom,
                    gs,
                    mask: &mask[..u.len()],
                    h1: 1.0,
                    h2: 0.5,
                };
                op.apply_local_with(u, &mut y2[..u.len()], &pool);
            },
        )
    };
    record_sweep(&mut rows, "helmholtz", &helm_sweep);

    let fdms: Vec<ElementFdm> = helm_setups
        .iter()
        .map(|(_, geom, ..)| ElementFdm::new(geom))
        .collect();
    let fdm_sweep = {
        let mut z1 = vec![0.0; nmax];
        let mut z2 = vec![0.0; nmax];
        sweep_crossover(
            &sizes,
            reps,
            |size| {
                let i = helm_setups.iter().position(|s| s.0 == size).unwrap();
                let u = &helm_setups[i].3;
                z1[..u.len()].fill(0.0);
                fdms[i].apply_add(u, &mut z1[..u.len()], 1.0, 0.0);
            },
            |size| {
                let i = helm_setups.iter().position(|s| s.0 == size).unwrap();
                let u = &helm_setups[i].3;
                z2[..u.len()].fill(0.0);
                fdms[i].apply_add_with(u, &mut z2[..u.len()], 1.0, 0.0, &pool);
            },
        )
    };
    record_sweep(&mut rows, "fdm", &fdm_sweep);

    // Gather-scatter local phase: the sweep unit is the *group count* of
    // each ladder mesh (what the runtime gate compares against).
    let gs_sweep = {
        let pooled_gs: Vec<GatherScatter> = helm_setups
            .iter()
            .map(|(nelv, _, _, _)| {
                let dims = ELEM_LADDER.iter().find(|&&(n, _)| n == *nelv).unwrap().1;
                let mesh = box_mesh(
                    dims[0],
                    dims[1],
                    dims[2],
                    [0., 1.],
                    [0., 1.],
                    [0., 1.],
                    false,
                    false,
                );
                let part = vec![0usize; mesh.num_elements()];
                let my: Vec<usize> = (0..mesh.num_elements()).collect();
                let g = GatherScatter::build(&mesh, p, &part, &my, &comm);
                g.set_pool(&pool);
                g
            })
            .collect();
        let group_sizes: Vec<usize> = pooled_gs.iter().map(|g| g.num_groups()).collect();
        assert!(
            group_sizes.windows(2).all(|w| w[0] < w[1]),
            "ladder group counts must be strictly increasing to key the sweep"
        );
        let mut v1 = vec![0.0; nmax];
        let mut v2 = vec![0.0; nmax];
        sweep_crossover(
            &group_sizes,
            reps,
            |groups| {
                let i = group_sizes.iter().position(|&g| g == groups).unwrap();
                let (_, _, gs, u) = &helm_setups[i];
                v1[..u.len()].copy_from_slice(u);
                gs.apply(&mut v1[..u.len()], GsOp::Add, &comm);
            },
            |groups| {
                let i = group_sizes.iter().position(|&g| g == groups).unwrap();
                let u = &helm_setups[i].3;
                v2[..u.len()].copy_from_slice(u);
                pooled_gs[i].apply(&mut v2[..u.len()], GsOp::Add, &comm);
            },
        )
    };
    record_sweep(&mut rows, "gs_local", &gs_sweep);

    // Dot product: the sweep unit is the vector length, split into
    // degree-p elements as in the solver's element layout.
    let dot_sweep = {
        let n_per = (p + 1).pow(3);
        let lens = [1usize << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18];
        let nmax = *lens.last().unwrap();
        let a: Vec<f64> = (0..nmax)
            .map(|i| ((i * 29 % 101) as f64) * 1e-2 - 0.5)
            .collect();
        let b: Vec<f64> = (0..nmax)
            .map(|i| ((i * 43 % 97) as f64) * 1e-2 - 0.4)
            .collect();
        let dps: Vec<DotProduct> = lens
            .iter()
            .map(|&l| {
                let nelem = l / n_per;
                let layout = Arc::new(ElemLayout::new(n_per, (0..nelem).collect(), nelem));
                DotProduct::with_layout(&vec![1.0; l], layout)
            })
            .collect();
        sweep_crossover(
            &lens,
            reps,
            |len| {
                let i = lens.iter().position(|&l| l == len).unwrap();
                std::hint::black_box(dps[i].dot(&a[..len], &b[..len], &comm));
            },
            |len| {
                let i = lens.iter().position(|&l| l == len).unwrap();
                std::hint::black_box(dps[i].dot_with(&a[..len], &b[..len], &pool, &comm));
            },
        )
    };
    record_sweep(&mut rows, "dot", &dot_sweep);

    // --- Derive the tuning table -----------------------------------------
    // No crossover found means pooling never won on this host: gate with a
    // sentinel far above any realistic per-rank work size.
    const NEVER: usize = 1 << 30;
    let pick = |s: &CrossoverSweep| s.crossover.unwrap_or(NEVER);
    let tuned = KernelTuning {
        helmholtz_elems: pick(&helm_sweep),
        fdm_elems: pick(&fdm_sweep),
        gs_groups: pick(&gs_sweep),
        dot_len: pick(&dot_sweep),
        elemwise_len: pick(&dot_sweep),
        grad_elems: pick(&helm_sweep),
    };
    println!("\n  tuned table: {}", tuned.to_json());

    let record = bench_record(
        "autotune_kernels",
        &["kernel", "size", "serial_us", "pooled_us", "speedup"],
        rows,
        vec![
            ("cores", Value::int(cores as u64)),
            ("threads", Value::int(pool.threads() as u64)),
            ("reps", Value::int(reps as u64)),
            ("p", Value::int(p as u64)),
            ("simd", Value::str(rbx::basis::simd::level_name())),
            (
                "crossover_helmholtz_elems",
                Value::int(tuned.helmholtz_elems as u64),
            ),
            ("crossover_fdm_elems", Value::int(tuned.fdm_elems as u64)),
            ("crossover_gs_groups", Value::int(tuned.gs_groups as u64)),
            ("crossover_dot_len", Value::int(tuned.dot_len as u64)),
        ],
    );
    validate_bench(&record).expect("autotune record must self-validate");

    let dir = out_dir("autotune_kernels");
    let out = args.out.unwrap_or_else(|| dir.join("autotune.json"));
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out, format!("{record}\n")).unwrap_or_else(|e| {
        eprintln!("autotune_kernels: cannot write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("wrote {}", out.display());

    let tuning_out = args.tuning_out.unwrap_or_else(|| dir.join("tuning.json"));
    if let Some(parent) = tuning_out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&tuning_out, format!("{}\n", tuned.to_json())).unwrap_or_else(|e| {
        eprintln!(
            "autotune_kernels: cannot write {}: {e}",
            tuning_out.display()
        );
        std::process::exit(1);
    });
    println!("wrote {} (pass to run_dns --tuning)", tuning_out.display());
}
