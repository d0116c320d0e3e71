//! **§5.1 auto-tuning** — degree-specialization report.
//!
//! The paper's device layer auto-tunes key kernels per architecture. The
//! CPU analogue is the degree-specialized tensor kernels: the derivative
//! contraction carries const-generic specializations for the production
//! node counts (now including n = 10), measured here against the generic
//! path. The serial-vs-pooled timings of every pooled hot kernel, which
//! the fixed grain gates were set from, are `bench_kernels`' job.
//!
//! ```sh
//! cargo run --release -p rbx-bench --bin autotune_kernels -- --quick
//! ```

use rbx::basis::autotune_deriv;

fn main() {
    let mut quick = false;
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("flags: --quick");
                std::process::exit(0);
            }
            other => {
                eprintln!("autotune_kernels: unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let reps = if quick { 5 } else { 20 };
    println!(
        "autotune_kernels: {} reps, simd={}\n",
        reps,
        rbx::basis::simd::level_name()
    );

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
}
