// Index-style loops mirror the tensor/lattice math throughout; the
// iterator forms clippy suggests would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

//! # rbx-gs — gather-scatter for inter-element continuity
//!
//! The spectral-element method stores fields element-locally; continuity
//! across element boundaries is enforced by *gather-scatter* (direct
//! stiffness summation): nodes that coincide geometrically share a global
//! id, and `gs(u)` reduces (sum/min/max/mul) over each id's members and
//! writes the result back to all of them.
//!
//! The paper (§6) highlights that Neko's gather-scatter is "fully aware of
//! the topology of the mesh" and runs in **two phases** — one for purely
//! rank-local groups and one for groups shared between MPI ranks. This
//! module implements exactly that structure on top of
//! [`rbx_comm::Communicator`]:
//!
//! 1. a **local phase** reducing all locally-resident members, and
//! 2. a **shared phase** exchanging per-key partial reductions with
//!    neighbouring ranks that touch the same mesh entity.
//!
//! Global ids are derived *topologically* (vertex / edge / face keys built
//! from mesh vertex ids, with canonical orientation), never from floating-
//! point coordinates, so curved and periodic meshes need no tolerances.

use rbx_comm::{CommError, Communicator, Payload};
use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use rbx_mesh::topology::{classify_node, NodeClass, HEX_EDGES, HEX_FACES};
use rbx_mesh::HexMesh;
use rbx_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{OnceLock, PoisonError, RwLock};

/// Group count below which the local gather and scatter run inline on the
/// caller ([`WorkerPool::for_each_range_min`]). Measured on commodity 4–8
/// core hosts: a group is a few loads and adds, so the loop needs
/// thousands of groups to amortize the fixed ~10 µs pool wake.
const GS_GROUPS: usize = 2048;

thread_local! {
    /// Per-group reduction values of one apply, reused across applies. It
    /// lives in a thread-local, not in the operator: the operator is shared
    /// behind an `Arc`, and the overlapped Schwarz mode applies the fine
    /// and the coarse gather-scatter on two threads at once.
    static GROUP_VALUES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Reduction operator applied across nodes sharing a global id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GsOp {
    /// Sum (direct stiffness summation — the default for assembly).
    Add,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Product.
    Mul,
}

impl GsOp {
    #[inline]
    fn identity(self) -> f64 {
        match self {
            GsOp::Add => 0.0,
            GsOp::Min => f64::INFINITY,
            GsOp::Max => f64::NEG_INFINITY,
            GsOp::Mul => 1.0,
        }
    }

    #[inline]
    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            GsOp::Add => a + b,
            GsOp::Min => a.min(b),
            GsOp::Max => a.max(b),
            GsOp::Mul => a * b,
        }
    }
}

/// Topological key identifying a shared mesh entity node.
///
/// Ordering is derived so both sides of a rank boundary enumerate shared
/// keys identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key {
    /// Mesh vertex.
    Vertex(u64),
    /// Interior node `t ∈ 1..p` of edge `(vmin, vmax)`, measured from vmin.
    Edge(u64, u64, u16),
    /// Interior node of a face identified by (corner-min, next, diagonal)
    /// at canonical face coordinates `(a, b)`.
    Face(u64, u64, u64, u16, u16),
}

/// Canonicalize a face-interior node: given the face's corner vertex ids in
/// cyclic order and the face-local lattice coordinate `(a, b)` (`a` toward
/// corner 1, `b` toward corner 3, each in `0..=p`), produce an
/// orientation-independent key.
fn face_key(cycle: [u64; 4], a: usize, b: usize, p: usize) -> Key {
    // Lattice positions of the four cyclic corners in the (a, b) plane.
    const POS: [(usize, usize); 4] = [(0, 0), (1, 0), (1, 1), (0, 1)];
    // Index of the smallest corner id; a manual fold over the fixed four
    // entries keeps this infallible (min_by_key on 0..4 returns Option).
    let mut m = 0;
    for i in 1..4 {
        if cycle[i] < cycle[m] {
            m = i;
        }
    }
    let cand = [(m + 1) % 4, (m + 3) % 4];
    let nxt = if cycle[cand[0]] < cycle[cand[1]] {
        cand[0]
    } else {
        cand[1]
    };
    let other = if nxt == (m + 1) % 4 {
        (m + 3) % 4
    } else {
        (m + 1) % 4
    };
    let diag = (m + 2) % 4;
    let node = (a, b);
    let corner = |c: usize| -> (usize, usize) { (POS[c].0 * p, POS[c].1 * p) };
    let pm = corner(m);
    let pn = corner(nxt);
    let po = corner(other);
    // Offset of `node` from the min corner measured along the (axis-aligned)
    // direction toward `to`.
    let coord_along = |from: (usize, usize), to: (usize, usize)| -> usize {
        if from.0 != to.0 {
            if to.0 > from.0 {
                node.0 - from.0
            } else {
                from.0 - node.0
            }
        } else if to.1 > from.1 {
            node.1 - from.1
        } else {
            from.1 - node.1
        }
    };
    let ca = coord_along(pm, pn);
    let cb = coord_along(pm, po);
    Key::Face(cycle[m], cycle[nxt], cycle[diag], ca as u16, cb as u16)
}

/// Key of the non-interior node `(i, j, k)` of global element `ge` at
/// degree `p`; `None` for element-interior nodes, which no other element
/// shares.
fn node_key(mesh: &HexMesh, p: usize, ge: usize, i: usize, j: usize, k: usize) -> Option<Key> {
    match classify_node(i, j, k, p) {
        NodeClass::Interior => None,
        NodeClass::Vertex(v) => Some(Key::Vertex(mesh.elems[ge][v] as u64)),
        NodeClass::Edge { edge, t } => {
            let (a, b) = HEX_EDGES[edge];
            let va = mesh.elems[ge][a] as u64;
            let vb = mesh.elems[ge][b] as u64;
            let (vmin, vmax, tt) = if va < vb {
                (va, vb, t)
            } else {
                (vb, va, p - t)
            };
            Some(Key::Edge(vmin, vmax, tt as u16))
        }
        NodeClass::Face { face, a, b } => {
            let mut cycle = [0u64; 4];
            for (slot, &lv) in HEX_FACES[face].iter().enumerate() {
                cycle[slot] = mesh.elems[ge][lv] as u64;
            }
            Some(face_key(cycle, a, b, p))
        }
    }
}

/// Global node numbering of the whole mesh at degree `p`: the id of node
/// `i + n·(j + n·k)` of global element `e` (`n = p + 1`) is entry
/// `e·n³ + i + n·(j + n·k)` of the returned vector, and ids run over
/// `0..count`. Ids are handed out in global (element, node) scan order,
/// so every rank that holds the mesh derives the same numbering without
/// communication. Coincident nodes share an id exactly when the
/// gather-scatter groups them.
pub fn global_numbering(mesh: &HexMesh, p: usize) -> (Vec<usize>, usize) {
    let n = p + 1;
    let nn = n * n * n;
    let mut ids = Vec::with_capacity(mesh.num_elements() * nn);
    let mut seen: HashMap<Key, usize> = HashMap::new();
    let mut count = 0;
    for ge in 0..mesh.num_elements() {
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let id = match node_key(mesh, p, ge, i, j, k) {
                        Some(key) => *seen.entry(key).or_insert(count),
                        None => count,
                    };
                    if id == count {
                        count += 1;
                    }
                    ids.push(id);
                }
            }
        }
    }
    (ids, count)
}

/// A built gather-scatter operator for one rank's elements.
pub struct GatherScatter {
    /// Local node count (`nelv_local · (p+1)³`).
    n_local: usize,
    /// Flattened member lists of all groups with more than one member or a
    /// remote counterpart.
    members: Vec<u32>,
    /// CSR offsets into `members`, one entry per group + 1.
    group_ptr: Vec<u32>,
    /// Per neighbour rank: `(rank, group indices in shared-key order)`.
    shared: Vec<(usize, Vec<u32>)>,
    /// Groups with remote members, in shared-key order.
    shared_groups: Vec<u32>,
    /// CSR offsets into `fold_kind`/`fold_idx`, one per shared group + 1.
    /// Each shared group's entries enumerate *all* member instances of the
    /// group — local and remote — in global `(element id, node)` order, so
    /// the reduction folds identically on every rank count (the canonical
    /// combine the elastic-restart contract requires).
    fold_ptr: Vec<u32>,
    /// Per fold entry: `u32::MAX` = local member, else neighbour slot.
    fold_kind: Vec<u32>,
    /// Per fold entry: local node index (local member) or offset into that
    /// neighbour's incoming value buffer (remote member).
    fold_idx: Vec<u32>,
    /// Expected incoming value count per neighbour slot.
    recv_counts: Vec<usize>,
    /// Total member values sent to neighbours per apply.
    send_values: usize,
    /// Communication tag for this operator's shared phase.
    tag: u64,
    /// Observability handle, settable once through a shared reference
    /// (the operator lives behind an `Arc` in the simulation).
    tel: OnceLock<Telemetry>,
    /// Worker pool for the local gather and scatter phases — a one-thread
    /// pool until [`GatherScatter::set_pool`] replaces it.
    pool: RwLock<WorkerPool>,
}

impl GatherScatter {
    /// Build the operator for this rank.
    ///
    /// `mesh` is the full (replicated) mesh; `part` assigns every global
    /// element to a rank; `my_elems` lists this rank's global element ids in
    /// local order (must be consistent with `part` and `comm.rank()`).
    /// At production scale the mesh would be distributed, but the
    /// communication structure built here is identical.
    pub fn build(
        mesh: &HexMesh,
        p: usize,
        part: &[usize],
        my_elems: &[usize],
        comm: &dyn Communicator,
    ) -> Self {
        assert_eq!(part.len(), mesh.num_elements());
        let rank = comm.rank();
        for &e in my_elems {
            assert_eq!(part[e], rank, "my_elems inconsistent with partition");
        }
        // Canonical shared-phase combine relies on every rank's local
        // member lists ascending in global element id (build scan order is
        // element-major), which every production partitioner guarantees.
        debug_assert!(
            my_elems.windows(2).all(|w| w[0] < w[1]),
            "my_elems must be strictly ascending for the canonical combine"
        );
        let n = p + 1;
        let nn = n * n * n;
        let n_local = my_elems.len() * nn;

        let node_key = |ge: usize, i: usize, j: usize, k: usize| node_key(mesh, p, ge, i, j, k);

        // 1. Group local boundary nodes by key.
        let mut local_groups: BTreeMap<Key, Vec<u32>> = BTreeMap::new();
        for (le, &ge) in my_elems.iter().enumerate() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        if let Some(key) = node_key(ge, i, j, k) {
                            let idx = (le * nn + i + n * (j + n * k)) as u32;
                            local_groups.entry(key).or_default().push(idx);
                        }
                    }
                }
            }
        }

        // 2. Determine which other ranks touch each of *my* keys by scanning
        //    the remote elements' boundary nodes, recording every remote
        //    member instance `(owner, global element, node)` — the sweep is
        //    element-major and node-scan-ordered, so each key's instance
        //    list arrives already in canonical (element, node) order.
        let mut key_ranks: HashMap<Key, Vec<usize>> = HashMap::new();
        let mut remote_members: HashMap<Key, Vec<(usize, usize, usize)>> = HashMap::new();
        if comm.size() > 1 {
            for ge in 0..mesh.num_elements() {
                let owner = part[ge];
                if owner == rank {
                    continue;
                }
                for k in 0..n {
                    for j in 0..n {
                        for i in 0..n {
                            if let Some(key) = node_key(ge, i, j, k) {
                                if local_groups.contains_key(&key) {
                                    let ranks = key_ranks.entry(key).or_default();
                                    if !ranks.contains(&owner) {
                                        ranks.push(owner);
                                    }
                                    let scan = i + n * (j + n * k);
                                    remote_members
                                        .entry(key)
                                        .or_default()
                                        .push((owner, ge, scan));
                                }
                            }
                        }
                    }
                }
            }
        }

        // 3. Flatten groups (keeping only those that actually reduce) and
        //    build per-neighbour shared lists in deterministic key order.
        let mut members = Vec::new();
        let mut group_ptr = vec![0u32];
        let mut shared_map: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        // Shared groups in key order, with their keys for the fold build.
        let mut shared_keys: Vec<(Key, u32)> = Vec::new();
        for (key, group) in &local_groups {
            let remote = key_ranks.get(key);
            if group.len() == 1 && remote.is_none() {
                continue;
            }
            let gi = (group_ptr.len() - 1) as u32;
            members.extend_from_slice(group);
            group_ptr.push(members.len() as u32);
            if let Some(ranks) = remote {
                for &r in ranks {
                    shared_map.entry(r).or_default().push(gi);
                }
                shared_keys.push((*key, gi));
            }
        }
        let shared: Vec<(usize, Vec<u32>)> = shared_map.into_iter().collect();

        // 4. Canonical fold metadata for the shared groups: merge each
        //    group's local and remote member instances into one list sorted
        //    by global (element, node), so every touching rank combines the
        //    same values in the same order. Remote entries index into the
        //    neighbour's incoming message, whose layout both sides derive
        //    identically: shared keys in key order, the sender's members of
        //    each key in the sender's (element, node) scan order.
        let mut gi_to_si: HashMap<u32, usize> = HashMap::new();
        for (si, &(_, gi)) in shared_keys.iter().enumerate() {
            gi_to_si.insert(gi, si);
        }
        // Entries: (global element, node scan, kind, idx).
        let mut fold_entries: Vec<Vec<(usize, usize, u32, u32)>> =
            vec![Vec::new(); shared_keys.len()];
        for (si, &(_, gi)) in shared_keys.iter().enumerate() {
            let lo = group_ptr[gi as usize] as usize;
            let hi = group_ptr[gi as usize + 1] as usize;
            for &m in &members[lo..hi] {
                let le = m as usize / nn;
                let scan = m as usize % nn;
                fold_entries[si].push((my_elems[le], scan, u32::MAX, m));
            }
        }
        let mut recv_counts = vec![0usize; shared.len()];
        let mut send_values = 0usize;
        for (slot, (r, gids)) in shared.iter().enumerate() {
            let mut off = 0u32;
            for &gi in gids {
                send_values += (group_ptr[gi as usize + 1] - group_ptr[gi as usize]) as usize;
                let si = gi_to_si[&gi];
                if let Some(insts) = remote_members.get(&shared_keys[si].0) {
                    for &(owner, ge, scan) in insts {
                        if owner == *r {
                            fold_entries[si].push((ge, scan, slot as u32, off));
                            off += 1;
                        }
                    }
                }
            }
            recv_counts[slot] = off as usize;
        }
        let mut fold_ptr = vec![0u32];
        let mut fold_kind = Vec::new();
        let mut fold_idx = Vec::new();
        for entries in &mut fold_entries {
            entries.sort_unstable_by_key(|&(ge, scan, _, _)| (ge, scan));
            for &(_, _, kind, idx) in entries.iter() {
                fold_kind.push(kind);
                fold_idx.push(idx);
            }
            fold_ptr.push(fold_kind.len() as u32);
        }
        let shared_groups: Vec<u32> = shared_keys.iter().map(|&(_, gi)| gi).collect();

        Self {
            n_local,
            members,
            group_ptr,
            shared,
            shared_groups,
            fold_ptr,
            fold_kind,
            fold_idx,
            recv_counts,
            send_values,
            tag: 0x6753,
            tel: OnceLock::new(),
            // audit:allow(pool-discipline): setup, once per operator — the one-thread default that set_pool replaces
            pool: RwLock::new(WorkerPool::new(1)),
        }
    }

    /// Run the rank-local gather and scatter phases on `pool`, replacing
    /// the current pool. Callable through `&self` (the operator is
    /// typically shared via `Arc`); every call takes effect. Each group
    /// still reduces in member order on one thread, so the result bits are
    /// the same for every thread count. The shared (communication) phase
    /// is unaffected.
    pub fn set_pool(&self, pool: &WorkerPool) {
        *self.pool.write().unwrap_or_else(PoisonError::into_inner) = pool.clone();
    }

    /// Attach a telemetry handle. Callable through `&self` (the operator
    /// is typically shared via `Arc`); only the first call takes effect.
    /// When the handle is enabled, each [`GatherScatter::apply`] records
    /// `pool/gs` (gather, scatter) and `gs/shared` spans plus exchange-volume
    /// counters (`rbx_gs_messages_total`, `rbx_gs_bytes_total`).
    pub fn set_telemetry(&self, tel: &Telemetry) {
        let _ = self.tel.set(tel.clone());
    }

    #[inline]
    fn tel(&self) -> Option<&Telemetry> {
        self.tel.get().filter(|t| t.is_enabled())
    }

    /// Number of local nodes this operator acts on.
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Number of local reduction groups.
    pub fn num_groups(&self) -> usize {
        self.group_ptr.len() - 1
    }

    /// Ranks this rank exchanges shared-node data with.
    pub fn neighbors(&self) -> Vec<usize> {
        self.shared.iter().map(|(r, _)| *r).collect()
    }

    /// Total number of values this rank sends to neighbours per apply
    /// (member values of every shared group, per touching neighbour) — the
    /// surface traffic the paper's two-phase design minimizes. Globally,
    /// sends and receives balance: Σ_ranks sent == Σ_ranks received.
    pub fn shared_values(&self) -> usize {
        self.send_values
    }

    /// Apply the gather-scatter: reduce over every global-id group with
    /// `op` (local phase, then shared phase over the communicator) and
    /// scatter the result back to all members.
    ///
    /// Infallible interface for solver hot paths: on a communication
    /// failure the field is NaN-filled (fail-stop poisoning — the Krylov
    /// residual checks and the per-step non-finite scan stop promptly
    /// instead of integrating garbage) and the typed error is latched on
    /// the communicator for the step-verdict layer.
    pub fn apply(&self, u: &mut [f64], op: GsOp, comm: &dyn Communicator) {
        if self.try_apply(u, op, comm).is_err() {
            for v in u.iter_mut() {
                *v = f64::NAN;
            }
        }
    }

    /// Fallible gather-scatter. On a communication failure the epoch is
    /// poisoned (so neighbour ranks unwind from the symmetric exchange
    /// too), the error is latched via [`Communicator::set_fault`], and the
    /// field is left partially updated — callers that keep going must use
    /// [`GatherScatter::apply`], which NaN-fills instead.
    pub fn try_apply(
        &self,
        u: &mut [f64],
        op: GsOp,
        comm: &dyn Communicator,
    ) -> Result<(), CommError> {
        debug_assert_eq!(u.len(), self.n_local, "field length mismatch");
        // A poisoned epoch means some exchange was already abandoned:
        // starting another round would only feed stale frames into the
        // neighbour streams. Fail fast; the recovery loop heals the epoch.
        if let Some(e) = comm.poisoned() {
            // audit:allow(hot-alloc): cold failure path — one clone per poisoned epoch, never per step.
            comm.set_fault(e.clone());
            return Err(e);
        }
        let tel = self.tel();
        let ngroups = self.num_groups();
        // Phase 1 writes every slot, so the reused buffer is never cleared;
        // it only grows, to the largest operator applied on this thread.
        let mut buf = GROUP_VALUES.with(|c| std::mem::take(&mut *c.borrow_mut()));
        if buf.len() < ngroups {
            buf.resize(ngroups, 0.0);
        }
        let gval = &mut buf[..ngroups];

        // Read once per apply; a concurrent `set_pool` waits for it.
        let pool = self.pool.read().unwrap_or_else(PoisonError::into_inner);
        let chunk = loop_chunk(ngroups, pool.threads());

        // Phase 1: local gather. Groups are independent (each node belongs
        // to at most one group), so chunks of the group range gather in
        // parallel; each group reduces in member order on a single thread,
        // so the result bits do not depend on the thread count.
        {
            let _g = tel.map(|t| t.span_abs("pool/gs"));
            let gp = RangePtr::new(gval);
            pool.for_each_range_min(ngroups, chunk, GS_GROUPS, |g0, g1| {
                // SAFETY: chunk ranges of the group index are pairwise
                // disjoint, so each gval slot has exactly one writer.
                let gsub = unsafe { gp.range_mut(g0, g1) };
                for (gi, slot) in (g0..g1).zip(gsub.iter_mut()) {
                    let lo = self.group_ptr[gi] as usize;
                    let hi = self.group_ptr[gi + 1] as usize;
                    let mut acc = op.identity();
                    for &m in &self.members[lo..hi] {
                        acc = op.combine(acc, u[m as usize]);
                    }
                    *slot = acc;
                }
            });
        }

        // Phase 2: shared exchange. Each rank sends the raw *member values*
        // of every shared group; every touching rank then folds the full
        // member list — local and remote instances merged in global
        // (element, node) order — from the operator identity. The combine
        // order is therefore a property of the global mesh alone, so the
        // shared-group results are bitwise identical for every rank count
        // (and equal to the single-rank local fold).
        if !self.shared.is_empty() {
            let mut g = tel.map(|t| t.span_abs("gs/shared"));
            let sent: u64 = self.send_values as u64;
            let recvd: u64 = self.recv_counts.iter().sum::<usize>() as u64;
            let messages = self.shared.len() as u64;
            if let Some(g) = g.as_mut() {
                // Count both directions of the exchange.
                g.record("messages", 2 * messages);
                g.record("bytes", 8 * (sent + recvd));
            }
            if let Some(t) = tel {
                t.counter_add("rbx_gs_messages_total", 2 * messages);
                t.counter_add("rbx_gs_bytes_total", 8 * (sent + recvd));
            }
            for (nbr, gids) in &self.shared {
                // audit:allow(hot-alloc): message assembly — the communicator takes ownership of the payload, so a fresh buffer per neighbour is the send contract
                let mut payload: Vec<f64> = Vec::new();
                for &gi in gids {
                    let lo = self.group_ptr[gi as usize] as usize;
                    let hi = self.group_ptr[gi as usize + 1] as usize;
                    for &m in &self.members[lo..hi] {
                        payload.push(u[m as usize]);
                    }
                }
                comm.send(*nbr, self.tag, Payload::F64(payload));
            }
            let timeout = comm.tuning().recv_timeout;
            // audit:allow(hot-alloc): per-apply neighbour receive buffers — the canonical fold needs all neighbours' member values before combining
            let mut incoming: Vec<Vec<f64>> = Vec::with_capacity(self.shared.len());
            for (slot, (nbr, _)) in self.shared.iter().enumerate() {
                let vals = match comm
                    .recv_deadline(*nbr, self.tag, timeout)
                    .and_then(Payload::try_into_f64)
                    .and_then(|v| {
                        if v.len() == self.recv_counts[slot] {
                            Ok(v)
                        } else {
                            Err(CommError::Protocol {
                                // audit:allow(hot-alloc): error path only — allocates when a malformed exchange aborts the apply, never on the healthy fold
                                detail: format!(
                                    "gs exchange from rank {nbr}: {} values, expected {}",
                                    v.len(),
                                    self.recv_counts[slot]
                                ),
                            })
                        }
                    }) {
                    Ok(v) => v,
                    Err(e) => {
                        // The exchange is symmetric: peers are blocked on
                        // our member values too. Poison so they unwind
                        // instead of timing out one by one.
                        comm.poison(&e);
                        // audit:allow(hot-alloc): cold failure path — one
                        // clone per comm fault, never per step.
                        comm.set_fault(e.clone());
                        return Err(e);
                    }
                };
                incoming.push(vals);
            }
            for (si, &gi) in self.shared_groups.iter().enumerate() {
                let mut acc = op.identity();
                for t in self.fold_ptr[si] as usize..self.fold_ptr[si + 1] as usize {
                    let v = match self.fold_kind[t] {
                        u32::MAX => u[self.fold_idx[t] as usize],
                        slot => incoming[slot as usize][self.fold_idx[t] as usize],
                    };
                    acc = op.combine(acc, v);
                }
                gval[gi as usize] = acc;
            }
        }

        // Scatter back. Member sets of distinct groups are disjoint, so the
        // scatter writes of parallel group chunks never alias.
        let _g = tel.map(|t| t.span_abs("pool/gs"));
        let up = RangePtr::new(u);
        let gv = &*gval;
        pool.for_each_range_min(ngroups, chunk, GS_GROUPS, |g0, g1| {
            for gi in g0..g1 {
                let lo = self.group_ptr[gi] as usize;
                let hi = self.group_ptr[gi + 1] as usize;
                for &m in &self.members[lo..hi] {
                    // SAFETY: each node index appears in at most one group,
                    // so writes from different chunks are disjoint.
                    unsafe { up.write(m as usize, gv[gi]) };
                }
            }
        });
        GROUP_VALUES.with(|c| *c.borrow_mut() = buf);
        Ok(())
    }

    /// Node multiplicity: how many element-local copies each global node
    /// has across all ranks. `gs(1, Add)` by definition.
    pub fn multiplicity(&self, comm: &dyn Communicator) -> Vec<f64> {
        let mut ones = vec![1.0; self.n_local];
        self.apply(&mut ones, GsOp::Add, comm);
        ones
    }

    /// Averaging helper: `gs(u, Add)` followed by division by multiplicity,
    /// which projects a discontinuous field onto the continuous space.
    pub fn average(&self, u: &mut [f64], mult: &[f64], comm: &dyn Communicator) {
        self.apply(u, GsOp::Add, comm);
        for (v, m) in u.iter_mut().zip(mult) {
            *v /= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::{run_on_ranks, SingleComm};
    use rbx_mesh::cylinder::{cylinder_mesh, CylinderParams};
    use rbx_mesh::generators::box_mesh;
    use rbx_mesh::geometry::GeomFactors;
    use rbx_mesh::partition::{part_elements, partition_rcb};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    fn single_gs(mesh: &HexMesh, p: usize) -> (GatherScatter, SingleComm) {
        let comm = SingleComm::new();
        let part = vec![0usize; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        (GatherScatter::build(mesh, p, &part, &my, &comm), comm)
    }

    #[test]
    fn multiplicity_box_2x1x1() {
        // Two elements sharing one face: shared-face nodes have mult 2.
        let p = 3;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        let n = p + 1;
        let nn = n * n * n;
        let mut count2 = 0;
        for le in 0..2 {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let m = mult[le * nn + i + n * (j + n * k)];
                        let on_shared = (le == 0 && i == n - 1) || (le == 1 && i == 0);
                        if on_shared {
                            assert_close(m, 2.0, 0.0);
                            count2 += 1;
                        } else {
                            assert_close(m, 1.0, 0.0);
                        }
                    }
                }
            }
        }
        assert_eq!(count2, 2 * n * n);
    }

    #[test]
    fn coordinates_are_continuous_under_average() {
        // gs-average of nodal coordinates must reproduce them exactly —
        // this catches any mis-paired node (wrong orientation handling).
        let p = 4;
        let mesh = box_mesh(3, 3, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&mesh, p);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        for dim in 0..3 {
            let mut c = geom.coords[dim].clone();
            gs.average(&mut c, &mult, &comm);
            for (a, b) in c.iter().zip(&geom.coords[dim]) {
                assert_close(*a, *b, 1e-12);
            }
        }
    }

    #[test]
    fn coordinates_continuous_on_cylinder() {
        // Same invariant on the curved o-grid mesh exercises face keys with
        // every orientation the generator produces.
        let p = 5;
        let mesh = cylinder_mesh(CylinderParams::default());
        let geom = GeomFactors::new(&mesh, p);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        for dim in 0..3 {
            let mut c = geom.coords[dim].clone();
            gs.average(&mut c, &mult, &comm);
            for (a, b) in c.iter().zip(&geom.coords[dim]) {
                assert_close(*a, *b, 1e-10);
            }
        }
    }

    #[test]
    fn interior_vertex_multiplicity_8() {
        let p = 2;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        let max = mult.iter().cloned().fold(0.0, f64::max);
        assert_close(max, 8.0, 0.0);
        // The single interior mesh vertex appears once in each of the 8
        // elements.
        let count = mult.iter().filter(|&&m| m == 8.0).count();
        assert_eq!(count, 8);
    }

    #[test]
    fn periodic_box_wraps_multiplicity() {
        let p = 3;
        let mesh = box_mesh(3, 1, 1, [0., 3.], [0., 1.], [0., 1.], true, false);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        let n = p + 1;
        let nn = n * n * n;
        for k in 0..n {
            for j in 0..n {
                let m_left = mult[n * j + n * n * k]; // element 0, i = 0
                let m_right = mult[2 * nn + (n - 1) + n * (j + n * k)]; // element 2, i = n-1
                assert!(m_left >= 2.0, "left face node mult {m_left}");
                assert!(m_right >= 2.0, "right face node mult {m_right}");
            }
        }
    }

    #[test]
    fn min_max_ops() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let n = p + 1;
        let nn = n * n * n;
        let mut u = vec![0.0; 2 * nn];
        for (i, v) in u.iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut umin = u.clone();
        gs.apply(&mut umin, GsOp::Min, &comm);
        let mut umax = u.clone();
        gs.apply(&mut umax, GsOp::Max, &comm);
        for k in 0..n {
            for j in 0..n {
                let a = (n - 1) + n * (j + n * k); // elem 0, +x face
                let b = nn + n * (j + n * k); // elem 1, -x face
                assert_close(umin[a], u[a].min(u[b]), 0.0);
                assert_close(umax[a], u[a].max(u[b]), 0.0);
                assert_close(umin[a], umin[b], 0.0);
                assert_close(umax[a], umax[b], 0.0);
            }
        }
    }

    #[test]
    fn multirank_matches_single_rank() {
        // A deterministic per-(global element, node) field gathered on 1
        // rank must equal the same field gathered on 4 ranks.
        let p = 3;
        let mesh = box_mesh(4, 2, 2, [0., 4.], [0., 2.], [0., 2.], false, false);
        let n = p + 1;
        let nn = n * n * n;
        let field =
            |ge: usize, node: usize| -> f64 { ((ge * 31 + node * 7) % 97) as f64 * 0.25 - 10.0 };

        let (gs1, comm1) = single_gs(&mesh, p);
        let mut ref_u: Vec<f64> = (0..mesh.num_elements() * nn)
            .map(|i| field(i / nn, i % nn))
            .collect();
        gs1.apply(&mut ref_u, GsOp::Add, &comm1);

        let part = partition_rcb(&mesh, 4);
        let lists = part_elements(&part, 4);
        let (mesh_ref, part_ref, lists_ref) = (&mesh, &part, &lists);
        let results = run_on_ranks(4, move |comm| {
            let my = &lists_ref[comm.rank()];
            let gs = GatherScatter::build(mesh_ref, p, part_ref, my, comm);
            let mut u: Vec<f64> = my
                .iter()
                .flat_map(|&ge| (0..nn).map(move |nd| field(ge, nd)))
                .collect();
            gs.apply(&mut u, GsOp::Add, comm);
            (my.clone(), u)
        });
        for (my, u) in results {
            for (le, &ge) in my.iter().enumerate() {
                for nd in 0..nn {
                    assert_close(u[le * nn + nd], ref_u[ge * nn + nd], 1e-12);
                }
            }
        }
    }

    #[test]
    fn multirank_combine_is_bitwise_canonical() {
        // The canonical shared-phase fold makes the gathered field
        // *bitwise* independent of the rank count — the foundation of the
        // elastic-restart determinism contract.
        let p = 3;
        let mesh = box_mesh(4, 2, 2, [0., 4.], [0., 2.], [0., 2.], false, false);
        let n = p + 1;
        let nn = n * n * n;
        let field = |ge: usize, node: usize| -> f64 {
            (((ge * 131 + node * 17) % 1009) as f64) * 1.37e-3 - 0.61
        };
        let (gs1, comm1) = single_gs(&mesh, p);
        let mut ref_u: Vec<f64> = (0..mesh.num_elements() * nn)
            .map(|i| field(i / nn, i % nn))
            .collect();
        gs1.apply(&mut ref_u, GsOp::Add, &comm1);

        for nranks in [2usize, 4] {
            let part = partition_rcb(&mesh, nranks);
            let lists = part_elements(&part, nranks);
            let (mesh_ref, part_ref, lists_ref) = (&mesh, &part, &lists);
            let results = run_on_ranks(nranks, move |comm| {
                let my = &lists_ref[comm.rank()];
                let gs = GatherScatter::build(mesh_ref, p, part_ref, my, comm);
                let mut u: Vec<f64> = my
                    .iter()
                    .flat_map(|&ge| (0..nn).map(move |nd| field(ge, nd)))
                    .collect();
                gs.apply(&mut u, GsOp::Add, comm);
                (my.clone(), u)
            });
            for (my, u) in results {
                for (le, &ge) in my.iter().enumerate() {
                    for nd in 0..nn {
                        assert_eq!(
                            u[le * nn + nd].to_bits(),
                            ref_u[ge * nn + nd].to_bits(),
                            "nranks={nranks} elem {ge} node {nd}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multirank_multiplicity_matches_single() {
        let p = 2;
        let mesh = cylinder_mesh(CylinderParams {
            n_square: 2,
            n_rings: 1,
            n_z: 2,
            ..Default::default()
        });
        let n = p + 1;
        let nn = n * n * n;
        let (gs1, comm1) = single_gs(&mesh, p);
        let ref_mult = gs1.multiplicity(&comm1);

        let part = partition_rcb(&mesh, 3);
        let lists = part_elements(&part, 3);
        let (mesh_ref, part_ref, lists_ref) = (&mesh, &part, &lists);
        let results = run_on_ranks(3, move |comm| {
            let my = &lists_ref[comm.rank()];
            let gs = GatherScatter::build(mesh_ref, p, part_ref, my, comm);
            (my.clone(), gs.multiplicity(comm))
        });
        for (my, mult) in results {
            for (le, &ge) in my.iter().enumerate() {
                for nd in 0..nn {
                    assert_close(mult[le * nn + nd], ref_mult[ge * nn + nd], 0.0);
                }
            }
        }
    }

    #[test]
    fn gather_average_is_projection() {
        // average ∘ average = average (projection onto continuous space).
        let p = 4;
        let mesh = box_mesh(2, 2, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let mult = gs.multiplicity(&comm);
        let mut u: Vec<f64> = (0..gs.n_local()).map(|i| (i as f64 * 0.7).sin()).collect();
        gs.average(&mut u, &mult, &comm);
        let once = u.clone();
        gs.average(&mut u, &mult, &comm);
        for (a, b) in u.iter().zip(&once) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn pooled_apply_matches_serial_bitwise_across_thread_counts() {
        let p = 4;
        let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], true, false);
        let u0: Vec<f64> = {
            let (gs, _) = single_gs(&mesh, p);
            (0..gs.n_local())
                .map(|i| ((i * 37 % 113) as f64) * 0.03 - 1.5)
                .collect()
        };
        for op in [GsOp::Add, GsOp::Min, GsOp::Max, GsOp::Mul] {
            let (gs_ref, comm) = single_gs(&mesh, p);
            let mut u_ref = u0.clone();
            gs_ref.apply(&mut u_ref, op, &comm);
            for threads in [1usize, 4, 7] {
                let (gs, comm) = single_gs(&mesh, p);
                let pool = rbx_device::WorkerPool::new(threads);
                gs.set_pool(&pool);
                let mut u = u0.clone();
                gs.apply(&mut u, op, &comm);
                for i in 0..u.len() {
                    assert_eq!(
                        u_ref[i].to_bits(),
                        u[i].to_bits(),
                        "op={op:?} threads={threads} node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_apply_records_pool_span() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let tel = Telemetry::enabled();
        gs.set_telemetry(&tel);
        let pool = rbx_device::WorkerPool::new(2);
        gs.set_pool(&pool);
        let mut u = vec![1.0; gs.n_local()];
        gs.apply(&mut u, GsOp::Add, &comm);
        // Gather + scatter both run under the pooled span. A mesh this
        // small sits below the `GS_GROUPS` dispatch-overhead crossover, so
        // both loops are grain-gated to the caller thread and counted in
        // `grained` rather than `dispatches`.
        assert_eq!(tel.tracer().calls("pool/gs"), 2);
        let stats = pool.stats();
        assert!(stats.dispatches + stats.grained >= 2);
    }

    #[test]
    fn set_pool_replaces_the_previous_pool() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let first = rbx_device::WorkerPool::new(2);
        let second = rbx_device::WorkerPool::new(3);
        gs.set_pool(&first);
        gs.set_pool(&second);
        let mut u = vec![1.0; gs.n_local()];
        gs.apply(&mut u, GsOp::Add, &comm);
        let work = |s: rbx_device::PoolStats| s.dispatches + s.grained;
        assert_eq!(work(first.stats()), 0);
        assert_eq!(work(second.stats()), 2);
    }

    #[test]
    fn telemetry_counts_local_but_no_shared_on_single_rank() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let tel = Telemetry::enabled();
        gs.set_telemetry(&tel);
        let mut u = vec![1.0; gs.n_local()];
        gs.apply(&mut u, GsOp::Add, &comm);
        assert_eq!(tel.tracer().calls("pool/gs"), 2);
        assert_eq!(tel.tracer().calls("gs/shared"), 0);
        assert_eq!(tel.metrics().counter("rbx_gs_bytes_total"), 0);
    }

    #[test]
    fn telemetry_counts_shared_traffic_across_ranks() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let part = partition_rcb(&mesh, 2);
        let lists = part_elements(&part, 2);
        let tel = Telemetry::enabled();
        let (mesh_ref, part_ref, lists_ref, tel_ref) = (&mesh, &part, &lists, &tel);
        let shared_vals = run_on_ranks(2, move |comm| {
            let my = &lists_ref[comm.rank()];
            let gs = GatherScatter::build(mesh_ref, p, part_ref, my, comm);
            gs.set_telemetry(tel_ref);
            let mut u = vec![1.0; gs.n_local()];
            gs.apply(&mut u, GsOp::Add, comm);
            gs.shared_values() as u64
        });
        let total_vals: u64 = shared_vals.iter().sum();
        assert!(total_vals > 0, "ranks must actually share nodes");
        assert_eq!(tel.tracer().calls("gs/shared"), 2);
        // Each rank counts both directions of its exchange.
        assert_eq!(
            tel.metrics().counter("rbx_gs_bytes_total"),
            2 * 8 * total_vals
        );
        assert_eq!(
            tel.tracer().counter("gs/shared", "bytes"),
            tel.metrics().counter("rbx_gs_bytes_total")
        );
        assert!(tel.metrics().counter("rbx_gs_messages_total") >= 4);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let p = 2;
        let mesh = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let (gs, comm) = single_gs(&mesh, p);
        let tel = Telemetry::disabled();
        gs.set_telemetry(&tel);
        let mut u = vec![1.0; gs.n_local()];
        gs.apply(&mut u, GsOp::Add, &comm);
        assert!(tel.tracer().snapshot().is_empty());
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let p = 2;
        let mesh = box_mesh(4, 1, 1, [0., 4.], [0., 1.], [0., 1.], false, false);
        let part = partition_rcb(&mesh, 4);
        let lists = part_elements(&part, 4);
        let (mesh_ref, part_ref, lists_ref) = (&mesh, &part, &lists);
        let neighbor_sets = run_on_ranks(4, move |comm| {
            let my = &lists_ref[comm.rank()];
            let gs = GatherScatter::build(mesh_ref, p, part_ref, my, comm);
            gs.neighbors()
        });
        for (r, nbrs) in neighbor_sets.iter().enumerate() {
            for &nbr in nbrs {
                assert!(
                    neighbor_sets[nbr].contains(&r),
                    "rank {nbr} missing back-edge to {r}"
                );
            }
        }
    }
}
