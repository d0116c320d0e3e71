//! `pool-discipline`: hot paths must carry an explicit worker-pool
//! handle instead of reaching for ad-hoc threading.
//!
//! The persistent pool's guarantees — zero per-call spawns, zero
//! steady-state allocation, deterministic reductions — only hold when a
//! single pool owns the parallelism of a solve. The files listed in
//! `[rules.pool_discipline]` (per-step kernels and solver drivers) are
//! therefore denied:
//!
//! * `std::thread::spawn` / `thread::scope` — per-call OS threads defeat
//!   the park/wake runtime and the no-spawn contract;
//! * `par_for(..)` / `par_reduce(..)` / `global_pool()` — an implicit
//!   process-global pool hides a hot path's parallelism from `run_dns
//!   --threads` and from the utilization telemetry;
//! * `WorkerPool::auto()` / `WorkerPool::new(..)` — constructing a pool
//!   inside a kernel spawns threads per call; pools are built once at
//!   startup and plumbed through operator structs (`set_pool`).
//!
//! Deliberate exceptions (e.g. the setup-time default pool) carry an inline
//! `// audit:allow(pool-discipline): reason` waiver.

use crate::config::AuditConfig;
use crate::lexer::Token;
use crate::report::Finding;
use crate::rules::POOL;
use crate::workspace::SourceFile;

/// Free functions routing through the implicit global pool.
const GLOBAL_POOL_FNS: &[&str] = &["par_for", "par_reduce", "global_pool"];
/// `thread::<method>` calls that create or scope OS threads.
const THREAD_FNS: &[&str] = &["spawn", "scope"];
/// `WorkerPool::<ctor>` pool constructors.
const POOL_CTORS: &[&str] = &["auto", "new", "serial"];

/// Is `toks[i]`..`toks[i+2]` the path `lhs::rhs`?
fn is_path_call(toks: &[Token], i: usize, lhs: &str, rhs: &[&str]) -> Option<String> {
    if !toks[i].is_ident(lhs) {
        return None;
    }
    if !(toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':')) {
        return None;
    }
    let t = toks.get(i + 3)?;
    rhs.iter()
        .find(|r| t.is_ident(r))
        .map(|r| format!("{lhs}::{r}"))
}

pub fn check(file: &SourceFile, cfg: &AuditConfig, out: &mut Vec<Finding>) {
    if !cfg.pool_discipline_paths.iter().any(|p| p == &file.path) {
        return;
    }
    let toks = file.prod_tokens();
    for i in 0..toks.len() {
        // `use` lines import names; only call sites matter.
        if i > 0 && toks[i - 1].is_ident("use") {
            continue;
        }
        if let Some(p) = is_path_call(toks, i, "thread", THREAD_FNS) {
            out.push(Finding::error(
                POOL,
                &file.path,
                toks[i].line,
                format!(
                    "{p} in a pool-disciplined hot path — route the work through the \
                     persistent WorkerPool handle (zero per-call spawns)"
                ),
            ));
            continue;
        }
        if let Some(p) = is_path_call(toks, i, "WorkerPool", POOL_CTORS) {
            out.push(Finding::error(
                POOL,
                &file.path,
                toks[i].line,
                format!(
                    "{p} constructs a pool inside a hot path — build the pool once at \
                     startup and plumb the handle through the operator (`set_pool`)"
                ),
            ));
            continue;
        }
        let is_global = GLOBAL_POOL_FNS.iter().find(|f| toks[i].is_ident(f));
        if let Some(f) = is_global {
            // A call site, not a definition or attribute.
            let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            let prev_fn = i > 0 && toks[i - 1].is_ident("fn");
            if next_paren && !prev_fn {
                out.push(Finding::error(
                    POOL,
                    &file.path,
                    toks[i].line,
                    format!(
                        "{f}(..) uses the implicit global pool in a hot path — take an \
                         explicit WorkerPool handle so run_dns --threads governs the \
                         parallelism and utilization telemetry sees it"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, listed: bool) -> Vec<Finding> {
        let mut cfg = AuditConfig::default();
        if listed {
            cfg.pool_discipline_paths.push("x.rs".into());
        }
        let (file, _) = SourceFile::from_source("x.rs", src);
        let mut out = Vec::new();
        check(&file, &cfg, &mut out);
        out
    }

    #[test]
    fn thread_spawn_and_scope_are_flagged() {
        let src = concat!(
            "fn f() {\n",
            "  std::thread::spawn(|| {});\n",
            "  thread::scope(|s| {});\n",
            "}\n",
        );
        let out = run(src, true);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("thread::spawn"));
        assert!(out[1].message.contains("thread::scope"));
    }

    #[test]
    fn global_pool_fns_and_ctors_are_flagged() {
        let src = concat!(
            "fn f(n: usize) {\n",
            "  par_for(n, |_| {});\n",
            "  let s = par_reduce(n, |i| i as f64);\n",
            "  let p = global_pool();\n",
            "  let q = WorkerPool::auto();\n",
            "  let r = WorkerPool::new(4);\n",
            "}\n",
        );
        assert_eq!(run(src, true).len(), 5);
    }

    #[test]
    fn explicit_pool_dispatch_is_clean() {
        let src = concat!(
            "fn f(pool: &WorkerPool, n: usize) {\n",
            "  pool.for_each_range(n, loop_chunk(n, pool.threads()), |s, e| {});\n",
            "  pool.for_each_range_min(n, loop_chunk(n, pool.threads()), 8, |s, e| {});\n",
            "  pool.pair(|| {}, || {});\n",
            "}\n",
        );
        assert!(run(src, true).is_empty());
    }

    #[test]
    fn definitions_and_imports_are_not_sites() {
        let src = concat!(
            "use rbx_device::{par_for, WorkerPool};\n",
            "pub fn par_for(n: usize) {}\n",
        );
        assert!(run(src, true).is_empty());
    }

    #[test]
    fn unlisted_file_is_ignored() {
        assert!(run("fn f() { std::thread::spawn(|| {}); }\n", false).is_empty());
    }
}
