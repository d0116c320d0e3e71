//! **bench_kernels** — serial vs pooled hot-kernel timings.
//!
//! Times the five kernels the persistent worker pool accelerates —
//! Helmholtz apply, solver dot product, gather-scatter local phase, the
//! element-FDM batch sweep, and the dealiased advection of the four
//! forcing fields (u, v, w, T) — at polynomial degrees 5, 7 and 9, serial
//! against pooled, and writes an `rbx.bench.v1` record (validated by
//! `telemetry_check --bench`).
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin bench_kernels -- \
//!     --quick --threads 4 --out BENCH_kernels.json --assert-speedup 2.0
//! ```
//!
//! `--assert-speedup X` exits non-zero unless every kernel that actually
//! dispatched to the pool reached `X`× serial at every degree — but only
//! on hosts with at least 4 cores, so single-core CI runners still
//! validate the schema and the bitwise agreement without a meaningless
//! performance gate. Kernels whose work size sat below their grain gate
//! (a compiled-in constant per kernel, DESIGN.md §15; detected here from
//! the pool's `grained` counter) ran inline by design; for those the gate
//! only requires parity with serial (≥ 0.8×), since the grain gate exists
//! precisely because pooling loses there.
//!
//! `--compare BASELINE.json` is the regression gate: every (kernel, p)
//! row is diffed against the baseline record and the run exits non-zero
//! if any pooled speedup fell by more than `--tolerance` (default 50%).
//! Absolute `serial_us` is only gated when the baseline was produced on
//! a host with the same core count — wall microseconds are not
//! comparable across machine classes, ratios mostly are.
//!
//! `--history FILE.jsonl` appends the (dated) record, so successive runs
//! accumulate a performance trajectory instead of overwriting it.

use rbx::comm::SingleComm;
use rbx::core::Dealias;
use rbx::device::WorkerPool;
use rbx::gs::{GatherScatter, GsOp};
use rbx::la::helmholtz::{HelmholtzOp, HelmholtzScratch};
use rbx::la::ops::{DotProduct, ElemLayout};
use rbx::la::ElementFdm;
use rbx::mesh::generators::box_mesh;
use rbx::mesh::GeomFactors;
use rbx::telemetry::json::Value;
use rbx::telemetry::schema::{bench_record, validate_bench};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    quick: bool,
    threads: usize,
    out: PathBuf,
    assert_speedup: Option<f64>,
    compare: Option<PathBuf>,
    tolerance: f64,
    history: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        threads: 4,
        out: PathBuf::from("BENCH_kernels.json"),
        assert_speedup: None,
        compare: None,
        tolerance: 0.5,
        history: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_kernels: missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--threads" => {
                args.threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("bench_kernels: invalid --threads");
                    std::process::exit(2);
                })
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--assert-speedup" => {
                args.assert_speedup = Some(value("--assert-speedup").parse().unwrap_or_else(|_| {
                    eprintln!("bench_kernels: invalid --assert-speedup");
                    std::process::exit(2);
                }))
            }
            "--compare" => args.compare = Some(PathBuf::from(value("--compare"))),
            "--tolerance" => {
                args.tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("bench_kernels: invalid --tolerance");
                    std::process::exit(2);
                })
            }
            "--history" => args.history = Some(PathBuf::from(value("--history"))),
            "--help" | "-h" => {
                println!(
                    "flags: --quick --threads N --out FILE.json --assert-speedup X \
                     --compare BASELINE.json --tolerance F --history FILE.jsonl"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("bench_kernels: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if args.threads == 0 {
        eprintln!("bench_kernels: --threads must be at least 1");
        std::process::exit(2);
    }
    if !(args.tolerance > 0.0 && args.tolerance < 1.0) {
        eprintln!("bench_kernels: --tolerance must be in (0, 1)");
        std::process::exit(2);
    }
    args
}

/// UTC calendar date `YYYY-MM-DD` from the system clock (no chrono):
/// civil-from-days, Hinnant's algorithm.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `(serial_us, speedup)` keyed by `(kernel, p)`.
type BenchRows = Vec<((String, u64), (f64, f64))>;

/// Index the `(kernel, p)` rows of a bench record:
/// `(serial_us, speedup)` per key, plus the host core count from meta.
fn index_record(v: &Value) -> Result<(BenchRows, Option<u64>), String> {
    validate_bench(v)?;
    let columns = v.get("columns").and_then(Value::as_arr).unwrap();
    let col = |name: &str| {
        columns
            .iter()
            .position(|c| c.as_str() == Some(name))
            .ok_or_else(|| format!("record has no {name:?} column"))
    };
    let (ck, cp, cs, cx) = (
        col("kernel")?,
        col("p")?,
        col("serial_us")?,
        col("speedup")?,
    );
    let rows = v.get("rows").and_then(Value::as_arr).unwrap();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row.as_arr().unwrap();
        let key = (
            row[ck].as_str().unwrap_or("?").to_string(),
            row[cp].as_f64().unwrap_or(0.0) as u64,
        );
        let serial = row[cs].as_f64().ok_or("serial_us must be numeric")?;
        let speedup = row[cx].as_f64().ok_or("speedup must be numeric")?;
        out.push((key, (serial, speedup)));
    }
    let cores = v
        .get("meta")
        .and_then(|m| m.get("cores"))
        .and_then(Value::as_u64);
    Ok((out, cores))
}

/// The regression gate: diff `record` against the baseline file. Returns
/// human-readable regression lines (empty = gate passed).
fn compare_against(
    baseline: &std::path::Path,
    record: &Value,
    tol: f64,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("reading {}: {e}", baseline.display()))?;
    let base_v =
        Value::parse(text.trim()).map_err(|e| format!("parsing {}: {e}", baseline.display()))?;
    let (base_rows, base_cores) =
        index_record(&base_v).map_err(|e| format!("{}: {e}", baseline.display()))?;
    let (now_rows, now_cores) = index_record(record)?;
    let gate_serial = base_cores.is_some() && base_cores == now_cores;
    if !gate_serial {
        println!(
            "  compare: serial_us gate skipped (baseline cores {:?}, host cores {:?})",
            base_cores, now_cores
        );
    }
    let mut regressions = Vec::new();
    for ((kernel, p), (base_serial, base_speedup)) in &base_rows {
        let Some((_, (serial, speedup))) =
            now_rows.iter().find(|((k, q), _)| k == kernel && q == p)
        else {
            regressions.push(format!("{kernel} p={p}: row missing from current run"));
            continue;
        };
        if *speedup < base_speedup * (1.0 - tol) {
            regressions.push(format!(
                "{kernel} p={p}: speedup {speedup:.2}x < baseline {base_speedup:.2}x - {:.0}%",
                tol * 100.0
            ));
        }
        if gate_serial && *serial > base_serial * (1.0 + tol) {
            regressions.push(format!(
                "{kernel} p={p}: serial {serial:.1} us > baseline {base_serial:.1} us + {:.0}%",
                tol * 100.0
            ));
        }
    }
    Ok(regressions)
}

/// Best-of-`reps` wall time of `f`, in microseconds (one warmup call).
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if args.quick { 5 } else { 30 };
    let pool = WorkerPool::new(args.threads);
    println!(
        "bench_kernels: {} host cores, pool of {} threads, {} reps{}",
        cores,
        pool.threads(),
        reps,
        if args.quick { " (quick)" } else { "" }
    );

    let comm = SingleComm::new();
    println!("  simd level: {}", rbx::basis::simd::level_name());
    let mut rows: Vec<Vec<Value>> = Vec::new();
    // (kernel, p, speedup, dispatched): `dispatched` is false when the
    // pooled run stayed under the grain crossover and ran inline.
    let mut gate_rows: Vec<(&'static str, usize, f64, bool)> = Vec::new();
    // Time a pooled kernel and report whether it truly dispatched to the
    // worker pool (vs being grain-gated to the inline path).
    let time_pooled = |reps: usize, pool: &WorkerPool, f: &mut dyn FnMut()| -> (f64, bool) {
        let before = pool.stats().dispatches;
        let us = time_us(reps, f);
        (us, pool.stats().dispatches > before)
    };

    for p in [5usize, 7, 9] {
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let part = vec![0usize; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let geom = GeomFactors::new(&mesh, p);
        let n = geom.total_nodes();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 31 % 97) as f64) * 0.01 - 0.4)
            .collect();
        let mask = vec![1.0; n];

        // Helmholtz local apply: serial vs pooled (bitwise identical).
        let gs = Arc::new(GatherScatter::build(&mesh, p, &part, &my, &comm));
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.5,
        };
        let mut y = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        let serial = time_us(reps, || op.apply_local(&u, &mut y, &mut scratch));
        let y_serial = y.clone();
        let (pooled, dispatched) =
            time_pooled(reps, &pool, &mut || op.apply_local_with(&u, &mut y, &pool));
        assert_eq!(y_serial, y, "pooled Helmholtz apply diverged at p={p}");
        gate_rows.push(("helmholtz_apply", p, serial / pooled, dispatched));
        rows.push(row("helmholtz_apply", p, serial, pooled));

        // Solver dot product over the element layout the solver attaches
        // (pooled bits equal the serial ones).
        let mult = gs.multiplicity(&comm);
        let nelem = mesh.num_elements();
        let layout = Arc::new(ElemLayout::new(geom.nodes_per_element(), my.clone(), nelem));
        let dp = DotProduct::with_layout(&mult, layout);
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 17 % 89) as f64) * 0.02 - 0.9)
            .collect();
        let serial = time_us(reps, || {
            std::hint::black_box(dp.dot(&u, &b, &comm));
        });
        let (pooled, dispatched) = time_pooled(reps, &pool, &mut || {
            std::hint::black_box(dp.dot_with(&u, &b, &pool, &comm));
        });
        gate_rows.push(("dot_product", p, serial / pooled, dispatched));
        rows.push(row("dot_product", p, serial, pooled));

        // Gather-scatter local phase: the operator's default one-thread
        // pool, then the same operator on the bench pool.
        let mut v = u.clone();
        let serial = time_us(reps, || gs.apply(&mut v, GsOp::Add, &comm));
        gs.set_pool(&pool);
        let mut v2 = u.clone();
        let (pooled, dispatched) =
            time_pooled(reps, &pool, &mut || gs.apply(&mut v2, GsOp::Add, &comm));
        gate_rows.push(("gs_local", p, serial / pooled, dispatched));
        rows.push(row("gs_local", p, serial, pooled));

        // Element-FDM batch sweep (the Schwarz fine level).
        let fdm = ElementFdm::new(&geom);
        let mut z = vec![0.0; n];
        let serial = time_us(reps, || {
            z.iter_mut().for_each(|x| *x = 0.0);
            fdm.apply_add(&u, &mut z, 1.0, 0.0);
        });
        let z_serial = z.clone();
        let (pooled, dispatched) = time_pooled(reps, &pool, &mut || {
            z.iter_mut().for_each(|x| *x = 0.0);
            fdm.apply_add_with(&u, &mut z, 1.0, 0.0, &pool);
        });
        assert_eq!(z_serial, z, "pooled FDM sweep diverged at p={p}");
        gate_rows.push(("fdm_batch", p, serial / pooled, dispatched));
        rows.push(row("fdm_batch", p, serial, pooled));

        // Dealiased advection of four fields by one velocity (the step's
        // forcing): a one-thread pool — the solver's serial path — vs the
        // bench pool.
        let dealias = Dealias::new(&geom, true);
        let vel = [u.as_slice(), b.as_slice(), mask.as_slice()];
        let fields = [vel[0], vel[1], vel[2], y_serial.as_slice()];
        let mut adv = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let one = WorkerPool::new(1);
        let serial = time_us(reps, || {
            let [a0, a1, a2, a3] = &mut adv;
            dealias.advect_with(&geom, vel, fields, [a0, a1, a2, a3], &one);
        });
        let adv_serial = adv.clone();
        let (pooled, dispatched) = time_pooled(reps, &pool, &mut || {
            let [a0, a1, a2, a3] = &mut adv;
            dealias.advect_with(&geom, vel, fields, [a0, a1, a2, a3], &pool);
        });
        assert_eq!(
            adv_serial, adv,
            "pooled dealiased advection diverged at p={p}"
        );
        gate_rows.push(("dealias_advect", p, serial / pooled, dispatched));
        rows.push(row("dealias_advect", p, serial, pooled));
    }

    for r in &rows {
        let (k, p) = (r[0].as_str().unwrap_or("?"), r[1].as_f64().unwrap_or(0.0));
        let (s, q, x) = (
            r[2].as_f64().unwrap_or(0.0),
            r[3].as_f64().unwrap_or(0.0),
            r[4].as_f64().unwrap_or(0.0),
        );
        println!("  {k:<16} p={p:<2} serial {s:>9.1} us  pooled {q:>9.1} us  speedup {x:.2}x");
    }

    let record = bench_record(
        "bench_kernels",
        &["kernel", "p", "serial_us", "pooled_us", "speedup"],
        rows,
        vec![
            ("cores", Value::int(cores as u64)),
            ("threads", Value::int(pool.threads() as u64)),
            ("reps", Value::int(reps as u64)),
            ("quick", Value::int(u64::from(args.quick))),
            ("date", Value::str(utc_date())),
            ("simd", Value::str(rbx::basis::simd::level_name())),
        ],
    );
    validate_bench(&record).expect("bench record must self-validate");
    std::fs::write(&args.out, format!("{record}\n")).unwrap_or_else(|e| {
        eprintln!("bench_kernels: cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    });
    println!("wrote {}", args.out.display());

    if let Some(hist) = &args.history {
        use std::io::Write;
        let append = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(hist)
            .and_then(|mut f| writeln!(f, "{record}"));
        match append {
            Ok(()) => println!("appended to history {}", hist.display()),
            Err(e) => {
                eprintln!("bench_kernels: cannot append {}: {e}", hist.display());
                std::process::exit(1);
            }
        }
    }

    if let Some(base) = &args.compare {
        match compare_against(base, &record, args.tolerance) {
            Ok(regressions) if regressions.is_empty() => println!(
                "compare gate passed vs {} (tolerance {:.0}%)",
                base.display(),
                args.tolerance * 100.0
            ),
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!("bench_kernels: REGRESSION: {r}");
                }
                eprintln!(
                    "bench_kernels: FAIL: {} regression(s) vs {}",
                    regressions.len(),
                    base.display()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("bench_kernels: cannot compare: {e}");
                std::process::exit(2);
            }
        }
    }

    if let Some(min) = args.assert_speedup {
        if cores >= 4 {
            // Grain-gated kernels ran inline by design: the kernel's
            // crossover says pooling loses at this work size, so the gate
            // only demands near-parity with the serial path there.
            const GATED_PARITY: f64 = 0.8;
            let mut failed = false;
            for (kernel, p, speedup, dispatched) in &gate_rows {
                let bound = if *dispatched { min } else { GATED_PARITY };
                if *speedup < bound {
                    eprintln!(
                        "bench_kernels: FAIL: {kernel} speedup {speedup:.2}x < {bound}x at p={p} \
                         ({}, {cores} cores, {} pool threads)",
                        if *dispatched {
                            "dispatched"
                        } else {
                            "grain-gated"
                        },
                        pool.threads()
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!(
                "speedup gate passed (dispatched >= {min}x, gated >= {GATED_PARITY}x parity, \
                 {cores} cores)"
            );
        } else {
            println!("speedup gate skipped: only {cores} core(s) available");
        }
    }
}

fn row(kernel: &str, p: usize, serial_us: f64, pooled_us: f64) -> Vec<Value> {
    vec![
        Value::str(kernel),
        Value::int(p as u64),
        Value::num(serial_us),
        Value::num(pooled_us),
        Value::num(serial_us / pooled_us),
    ]
}
