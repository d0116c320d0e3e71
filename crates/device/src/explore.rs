//! Deterministic schedule explorer: exhaustive interleaving checks.
//!
//! [`crate::desim`] answers *how long* a concurrent schedule takes in
//! virtual time; this module answers whether a concurrent algorithm is
//! *correct under every schedule*. A concurrent computation is modelled as
//! a set of [`ThreadProgram`]s — sequential step lists over shared state —
//! and [`explore`] enumerates **all** interleavings by depth-first search,
//! replaying the computation from scratch for every schedule prefix so no
//! state cloning is required. Each complete schedule is reduced to a
//! fingerprint of the final state; the run is declared deterministic only
//! when every interleaving reaches the same fingerprint and none
//! deadlocks.
//!
//! This is the harness behind the repo's strongest concurrency claim (the
//! paper's §5.3 overlapped Schwarz apply and the [`crate::pool`]
//! self-scheduling counter): bitwise-identical results on *every*
//! schedule, not just the schedules the host OS happened to produce while
//! a stress test ran.
//!
//! Model semantics:
//! * a step is atomic: the scheduler never preempts inside a step, so
//!   steps should be cut at every shared-memory interaction whose
//!   interleaving matters (one atomic access, one lock acquisition, one
//!   message);
//! * a step may return [`StepStatus::Blocked`] to model waiting (a lock
//!   held elsewhere, a not-yet-filled channel). A blocked step **must not
//!   mutate state**; it is retried when the scheduler next picks its
//!   thread;
//! * a schedule where unfinished threads exist but every one is blocked is
//!   a deadlock and is reported as such.

/// Outcome of attempting one step of a thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The step executed; the thread advances to its next step.
    Ran,
    /// The step cannot make progress yet; the thread stays on this step.
    /// A blocked step must leave the shared state untouched.
    Blocked,
}

/// One boxed step of a [`ThreadProgram`].
type Step<'a, S> = Box<dyn FnMut(&mut S) -> StepStatus + 'a>;

/// A sequential list of atomic steps executed against shared state `S`.
pub struct ThreadProgram<'a, S> {
    /// Thread label (used in reports and panic messages).
    pub name: String,
    steps: Vec<Step<'a, S>>,
}

impl<'a, S> ThreadProgram<'a, S> {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Append a step that may block.
    pub fn step(mut self, f: impl FnMut(&mut S) -> StepStatus + 'a) -> Self {
        self.steps.push(Box::new(f));
        self
    }

    /// Append a step that always runs.
    pub fn run(self, mut f: impl FnMut(&mut S) + 'a) -> Self {
        self.step(move |s| {
            f(s);
            StepStatus::Ran
        })
    }

    /// Number of steps in the program.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Complete (non-deadlocked) schedules executed.
    pub schedules: usize,
    /// Distinct final-state fingerprints, in first-seen order.
    pub outcomes: Vec<u64>,
    /// Schedules that ended with unfinished-but-all-blocked threads.
    pub deadlocks: usize,
    /// The choice sequence (thread index per step) of the first deadlock.
    pub deadlock_example: Option<Vec<usize>>,
    /// True when the exploration stopped at the schedule limit; the counts
    /// above then understate the full space.
    pub truncated: bool,
}

impl ExploreReport {
    /// The property the harness exists to check: every interleaving
    /// completed and produced the same fingerprint.
    pub fn is_deterministic(&self) -> bool {
        !self.truncated && self.deadlocks == 0 && self.outcomes.len() == 1 && self.schedules > 0
    }
}

/// Exhaustively explore every interleaving of the programs returned by
/// `build`, fingerprinting each complete schedule's final state.
///
/// `build` must construct the *same* initial state and programs on every
/// call — exploration replays the computation from scratch once per
/// explored prefix extension (quadratic in schedule length, exponential in
/// the schedule count; size models accordingly, see
/// [`count_interleavings`]). `limit` bounds the number of terminal
/// schedules (complete + deadlocked) before the search gives up and sets
/// [`ExploreReport::truncated`].
pub fn explore<'a, S>(
    mut build: impl FnMut() -> (S, Vec<ThreadProgram<'a, S>>),
    mut fingerprint: impl FnMut(&S) -> u64,
    limit: usize,
) -> ExploreReport {
    let mut report = ExploreReport {
        schedules: 0,
        outcomes: Vec::new(),
        deadlocks: 0,
        deadlock_example: None,
        truncated: false,
    };
    let mut prefix = Vec::new();
    dfs(
        &mut build,
        &mut fingerprint,
        &mut prefix,
        limit,
        &mut report,
    );
    report
}

/// Replay `prefix` on a fresh build. Returns the state, programs and
/// per-thread program counters after the prefix.
fn replay<'a, S>(
    build: &mut impl FnMut() -> (S, Vec<ThreadProgram<'a, S>>),
    prefix: &[usize],
) -> (S, Vec<ThreadProgram<'a, S>>, Vec<usize>) {
    let (mut state, mut threads) = build();
    let mut pcs = vec![0usize; threads.len()];
    for &t in prefix {
        let pc = pcs[t];
        let status = (threads[t].steps[pc])(&mut state);
        assert_eq!(
            status,
            StepStatus::Ran,
            "non-deterministic model: step {pc} of `{}` ran during exploration but blocked on replay",
            threads[t].name
        );
        pcs[t] += 1;
    }
    (state, threads, pcs)
}

fn dfs<'a, S>(
    build: &mut impl FnMut() -> (S, Vec<ThreadProgram<'a, S>>),
    fingerprint: &mut impl FnMut(&S) -> u64,
    prefix: &mut Vec<usize>,
    limit: usize,
    report: &mut ExploreReport,
) {
    if report.schedules + report.deadlocks >= limit {
        report.truncated = true;
        return;
    }
    let (state, threads, pcs) = replay(build, prefix);
    let unfinished: Vec<usize> = (0..threads.len())
        .filter(|&t| pcs[t] < threads[t].steps.len())
        .collect();
    if unfinished.is_empty() {
        let fp = fingerprint(&state);
        report.schedules += 1;
        if !report.outcomes.contains(&fp) {
            report.outcomes.push(fp);
        }
        return;
    }
    drop((state, threads, pcs));

    // A thread is enabled iff its next step runs. Attempting a step
    // mutates the state, so each candidate gets its own fresh replay; the
    // enabled ones then become DFS children.
    let mut enabled = Vec::new();
    for &t in &unfinished {
        let (mut state, mut threads, pcs) = replay(build, prefix);
        let status = (threads[t].steps[pcs[t]])(&mut state);
        if status == StepStatus::Ran {
            enabled.push(t);
        }
    }
    if enabled.is_empty() {
        report.deadlocks += 1;
        if report.deadlock_example.is_none() {
            report.deadlock_example = Some(prefix.clone());
        }
        return;
    }
    for t in enabled {
        prefix.push(t);
        dfs(build, fingerprint, prefix, limit, report);
        prefix.pop();
        if report.truncated {
            return;
        }
    }
}

/// Number of interleavings of threads with the given step counts (the
/// multinomial coefficient `(Σnᵢ)! / Πnᵢ!`), assuming no step ever
/// blocks. Useful for asserting an exploration was genuinely exhaustive.
pub fn count_interleavings(lens: &[usize]) -> u128 {
    let mut total: u128 = 0;
    let mut result: u128 = 1;
    for &len in lens {
        // Multiply by C(total + len, len) incrementally to keep the
        // intermediate products small.
        for k in 1..=len as u128 {
            total += 1;
            result = result * total / k;
        }
    }
    result.max(1)
}

/// FNV-1a fingerprint of a float slice via the bit patterns — the exact
/// equality the paper's "bitwise identical" claim is about (distinguishes
/// `-0.0` from `0.0` and every NaN payload).
pub fn fingerprint_f64(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_threads_are_deterministic() {
        // Two threads writing disjoint cells: every interleaving must give
        // the same result, and the schedule count must be the full
        // multinomial (2 threads × 2 steps → C(4,2) = 6).
        let report = explore(
            || {
                let state = vec![0.0f64; 2];
                let t0 = ThreadProgram::new("a")
                    .run(|s: &mut Vec<f64>| s[0] += 1.0)
                    .run(|s: &mut Vec<f64>| s[0] *= 2.0);
                let t1 = ThreadProgram::new("b")
                    .run(|s: &mut Vec<f64>| s[1] += 3.0)
                    .run(|s: &mut Vec<f64>| s[1] *= 4.0);
                (state, vec![t0, t1])
            },
            |s| fingerprint_f64(s),
            10_000,
        );
        assert!(report.is_deterministic(), "{report:?}");
        assert_eq!(report.schedules as u128, count_interleavings(&[2, 2]));
    }

    #[test]
    fn racy_split_rmw_is_caught() {
        // The classic lost update: each thread loads the shared cell into
        // a private slot, then stores slot + 1. Interleaving the loads
        // before the stores loses an increment — the explorer must surface
        // more than one outcome.
        struct S {
            shared: f64,
            t0: f64,
            t1: f64,
        }
        let report = explore(
            || {
                let s = S {
                    shared: 0.0,
                    t0: 0.0,
                    t1: 0.0,
                };
                let a = ThreadProgram::new("a")
                    .run(|s: &mut S| s.t0 = s.shared)
                    .run(|s: &mut S| s.shared = s.t0 + 1.0);
                let b = ThreadProgram::new("b")
                    .run(|s: &mut S| s.t1 = s.shared)
                    .run(|s: &mut S| s.shared = s.t1 + 1.0);
                (s, vec![a, b])
            },
            |s| fingerprint_f64(&[s.shared]),
            10_000,
        );
        assert!(!report.is_deterministic());
        assert_eq!(report.outcomes.len(), 2, "{report:?}"); // 1.0 and 2.0
        assert_eq!(report.deadlocks, 0);
    }

    #[test]
    fn circular_wait_deadlocks() {
        // Each thread first waits for the flag the *other* thread sets
        // afterwards: no schedule can make progress.
        let report = explore(
            || {
                let flags = vec![0.0f64; 2];
                let a = ThreadProgram::new("a")
                    .step(|s: &mut Vec<f64>| {
                        if s[1] > 0.0 {
                            StepStatus::Ran
                        } else {
                            StepStatus::Blocked
                        }
                    })
                    .run(|s: &mut Vec<f64>| s[0] = 1.0);
                let b = ThreadProgram::new("b")
                    .step(|s: &mut Vec<f64>| {
                        if s[0] > 0.0 {
                            StepStatus::Ran
                        } else {
                            StepStatus::Blocked
                        }
                    })
                    .run(|s: &mut Vec<f64>| s[1] = 1.0);
                (flags, vec![a, b])
            },
            |s| fingerprint_f64(s),
            10_000,
        );
        assert_eq!(report.schedules, 0);
        assert_eq!(report.deadlocks, 1);
        assert_eq!(report.deadlock_example.as_deref(), Some(&[][..]));
        assert!(!report.is_deterministic());
    }

    #[test]
    fn blocking_orders_producer_before_consumer() {
        // Consumer blocks until the producer has published: the only legal
        // schedule is produce → consume.
        let report = explore(
            || {
                let state = vec![0.0f64; 2];
                let producer = ThreadProgram::new("producer").run(|s: &mut Vec<f64>| s[0] = 42.0);
                let consumer = ThreadProgram::new("consumer").step(|s: &mut Vec<f64>| {
                    if s[0] == 0.0 {
                        return StepStatus::Blocked;
                    }
                    s[1] = s[0];
                    StepStatus::Ran
                });
                (state, vec![producer, consumer])
            },
            |s| fingerprint_f64(s),
            10_000,
        );
        assert!(report.is_deterministic(), "{report:?}");
        assert_eq!(report.schedules, 1);
    }

    /// Model of a pooled reduction: workers claim chunks off the pool's
    /// shared counter (the fetch_add is one atomic step), write one
    /// partial per chunk into a caller-owned slot, and the partials
    /// combine in index order after the join — the pattern of the
    /// solver's canonical reductions. The claim order varies per
    /// schedule; the sum must not.
    #[test]
    fn pool_counter_model_is_deterministic() {
        const NCHUNKS: usize = 3;
        struct S {
            counter: usize,
            partials: Vec<f64>,
        }
        let chunk_sum = |c: usize| ((c * 7919 + 13) % 101) as f64 * 0.125 - 6.0;
        let worker = move || {
            move |s: &mut S| {
                // One atomic step = the whole fetch_add + disjoint-slot
                // write (no other thread touches slot c).
                let c = s.counter;
                s.counter += 1;
                if c < NCHUNKS {
                    s.partials[c] = chunk_sum(c);
                }
            }
        };
        let report = explore(
            || {
                let s = S {
                    counter: 0,
                    partials: vec![0.0; NCHUNKS],
                };
                // Each worker gets NCHUNKS claim steps — enough for one
                // worker to drain the whole queue (late claims no-op).
                let mk = |name: &str| {
                    let mut t = ThreadProgram::new(name);
                    for _ in 0..NCHUNKS {
                        t = t.run(worker());
                    }
                    t
                };
                (s, vec![mk("w0"), mk("w1")])
            },
            |s| {
                // Index-ordered combine after the join.
                fingerprint_f64(&[s.partials.iter().sum::<f64>()])
            },
            100_000,
        );
        assert!(report.is_deterministic(), "{report:?}");
        assert_eq!(
            report.schedules as u128,
            count_interleavings(&[NCHUNKS, NCHUNKS])
        );
    }

    /// The same reduction with partials combined in *completion order*
    /// (push instead of indexed write) is schedule-dependent — the very
    /// failure mode the index-ordered partials buffer exists to prevent.
    #[test]
    fn completion_order_combine_is_schedule_dependent() {
        let report = explore(
            || {
                // Three workers each contribute one partial; floating-point
                // addition is not associative, so the finish-order sum
                // depends on the schedule.
                let vals = [1.0e16, 1.0, -1.0e16];
                let threads = vals
                    .iter()
                    .map(|&v| ThreadProgram::new("w").run(move |s: &mut Vec<f64>| s.push(v)))
                    .collect();
                (Vec::new(), threads)
            },
            |s: &Vec<f64>| {
                let mut acc = 0.0;
                for &v in s {
                    acc += v;
                }
                fingerprint_f64(&[acc])
            },
            100_000,
        );
        assert_eq!(report.schedules as u128, count_interleavings(&[1, 1, 1]));
        assert_eq!(report.deadlocks, 0);
        assert!(
            report.outcomes.len() > 1,
            "finish-order combine must be schedule-dependent: {report:?}"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let report = explore(
            || {
                let mk = || {
                    ThreadProgram::new("t")
                        .run(|_: &mut ()| {})
                        .run(|_: &mut ()| {})
                        .run(|_: &mut ()| {})
                };
                ((), vec![mk(), mk(), mk()])
            },
            |_| 0,
            5,
        );
        assert!(report.truncated);
        assert!(!report.is_deterministic());
    }

    #[test]
    fn interleaving_counts() {
        assert_eq!(count_interleavings(&[]), 1);
        assert_eq!(count_interleavings(&[4]), 1);
        assert_eq!(count_interleavings(&[1, 1]), 2);
        assert_eq!(count_interleavings(&[2, 2]), 6);
        assert_eq!(count_interleavings(&[3, 3]), 20);
        assert_eq!(count_interleavings(&[2, 2, 2]), 90);
    }

    #[test]
    fn fingerprint_distinguishes_bit_patterns() {
        assert_ne!(fingerprint_f64(&[0.0]), fingerprint_f64(&[-0.0]));
        assert_ne!(fingerprint_f64(&[1.0, 2.0]), fingerprint_f64(&[2.0, 1.0]));
        assert_eq!(fingerprint_f64(&[1.5, -2.5]), fingerprint_f64(&[1.5, -2.5]));
    }
}
