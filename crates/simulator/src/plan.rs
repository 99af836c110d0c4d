//! The plan/execute split of the wavelength-sweep hot path.
//!
//! A wavelength sweep evaluates the same circuit at many wavelengths. The
//! naive path ([`crate::evaluate`]) rebuilds everything from scratch at
//! every point: it re-derives the external/internal port partition, the
//! connection permutation and the elimination order, allocates a dozen
//! intermediate matrices, and re-evaluates every component model — even
//! the dispersionless ones whose S-matrix cannot change.
//!
//! The wavelength-independent work is split into two layers:
//!
//! * a [`SweepSchedule`] — everything determined by the circuit's
//!   **topology** alone (port partitions, pre-permuted gather indices,
//!   the block partition and symbolic factorization of the block-sparse
//!   solve). Schedules are immutable, `Send + Sync`, shareable via `Arc`,
//!   and a [`ScheduleCache`] memoizes them by [`Circuit::topology_hash`]
//!   so that candidate circuits which differ only in *settings* (the
//!   common case in evaluation campaigns) skip re-planning entirely;
//! * a [`SweepPlan`] — the schedule plus the per-instance **settings**
//!   state: an [`SMatrixMemo`] per instance holding the block of every
//!   wavelength-independent model, evaluated exactly once — and the SIMD
//!   [`Kernels`] table the block-sparse solve runs on, chosen once at
//!   construction ([`SweepPlan::with_kernels`]) and handed to every
//!   workspace the plan serves, parallel sweep workers included.
//!
//! The per-point state lives in a [`SolveWorkspace`]: the assembled global
//! matrix, the block-sparse factor and panels, and the dense system,
//! right-hand side and LU storage. All of it is reused between points, so
//! the steady-state scattering solve of both solver backends performs
//! **zero heap allocations** (dispersive component models still build
//! their own small S-matrices; every wavelength-independent model is
//! served from the memo) — property-verified by the counting-allocator
//! test in `tests/alloc.rs`. Each worker thread of the parallel sweep owns
//! one workspace.
//!
//! [`Backend::PortElimination`] has no planned form: a plan on it runs
//! the naive Filipsson reduction on the plan's assembled matrix at every
//! point, allocating as it goes. It is an oracle, not a production path.
//!
//! Two plan-based sweeps (serial or parallel) are bit-identical. Against
//! the naive path, the Dense and elimination backends follow the same
//! operation order exactly; the block-sparse backend agrees to machine
//! precision, so cross-checks compare with a tolerance, as the property
//! tests do.

use crate::backend::{eliminate_ports, Backend, SimError};
use crate::blocks::BlockSchedule;
use crate::elaborate::Circuit;
use picbench_math::simd::{self, Kernels};
use picbench_math::{BlockSparseLu, CMatrix, Complex, LuDecomposition, SplitComplexVec};
use picbench_sparams::SMatrixMemo;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything about a sweep that is determined by circuit *topology*
/// alone — no settings, no wavelengths. Immutable and shareable across
/// threads; build once per topology via [`SweepSchedule::for_circuit`] or
/// reuse through a [`ScheduleCache`].
#[derive(Debug)]
pub struct SweepSchedule {
    /// Total global ports of the topology this schedule was built for.
    total_ports: usize,
    /// External port global indices, in netlist order.
    ext_idx: Vec<usize>,
    /// Internal (connected) port global indices — Dense backend.
    int_idx: Vec<usize>,
    /// `int_idx[swap[r]]`: row gather indices with the connection
    /// permutation already applied, so `P·S_ii` and `P·S_ie` are direct
    /// reads of the global matrix — Dense backend.
    perm_int_idx: Vec<usize>,
    /// Block partition, symbolic factorization and scatter/combine
    /// recipes — BlockSparse backend.
    block: BlockSchedule,
}

impl SweepSchedule {
    /// Computes the sweep structure of a circuit's topology: the
    /// external/internal partition and pre-permuted gather rows (Dense)
    /// and the block partition plus symbolic factorization of the
    /// connectivity graph (BlockSparse). Both are built — the work is
    /// index bookkeeping plus a one-off symbolic analysis, negligible
    /// next to a single sweep point.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let n0 = circuit.total_ports;
        let ext_idx: Vec<usize> = circuit.externals.iter().map(|(_, i)| *i).collect();

        // Dense: internal partition and pre-permuted gather rows.
        let mut int_idx: Vec<usize> = Vec::with_capacity(circuit.connections.len() * 2);
        for &(a, b) in &circuit.connections {
            int_idx.push(a);
            int_idx.push(b);
        }
        // Connected pairs sit at adjacent positions (2k, 2k+1), so the
        // permutation swaps each even position with the following odd one.
        let mut perm_int_idx = vec![0usize; int_idx.len()];
        for k in 0..circuit.connections.len() {
            perm_int_idx[2 * k] = int_idx[2 * k + 1];
            perm_int_idx[2 * k + 1] = int_idx[2 * k];
        }

        SweepSchedule {
            total_ports: n0,
            ext_idx,
            int_idx,
            perm_int_idx,
            block: BlockSchedule::for_circuit(circuit),
        }
    }

    /// Number of external ports.
    pub fn external_count(&self) -> usize {
        self.ext_idx.len()
    }

    /// Total global ports of the topology.
    pub fn total_ports(&self) -> usize {
        self.total_ports
    }
}

/// Memoizes [`SweepSchedule`]s by [`Circuit::topology_hash`].
///
/// Candidate circuits produced by feedback retries and repeated samples
/// overwhelmingly share topologies (they differ in settings, if at all);
/// holding one of these per evaluator means a cache miss on the
/// *response* level still skips all re-planning. Entries are `Arc`s, so
/// plans built from a cached schedule stay valid if the cache is dropped.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    map: HashMap<u64, Arc<SweepSchedule>>,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// The schedule for `circuit`'s topology, built on first sight.
    pub fn get_or_build(&mut self, circuit: &Circuit) -> Arc<SweepSchedule> {
        Arc::clone(
            self.map
                .entry(circuit.topology_hash())
                .or_insert_with(|| Arc::new(SweepSchedule::for_circuit(circuit))),
        )
    }

    /// Number of distinct topologies seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A schedule bound to one concrete circuit: topology structure plus the
/// per-instance wavelength-independent S-matrix memos. See the module
/// docs of `plan` for the full story.
#[derive(Debug)]
pub struct SweepPlan<'c> {
    circuit: &'c Circuit,
    backend: Backend,
    schedule: Arc<SweepSchedule>,
    /// Per-instance memo; holds the block of every wavelength-independent
    /// model after construction.
    memos: Vec<SMatrixMemo>,
    /// Whether sweeps may fold a fully wavelength-independent circuit to
    /// a single solved point (on by default; benchmarks disable it to
    /// time the per-point solver).
    allow_constant_fold: bool,
    /// The kernel table every block-sparse factor, solve and combine of
    /// this plan runs on, in every workspace it serves.
    kernels: &'static Kernels,
}

/// Reference wavelength used to capture wavelength-independent S-matrices.
/// Any value works by definition; the C-band centre keeps diagnostics
/// unsurprising.
const MEMO_WAVELENGTH_UM: f64 = 1.55;

impl<'c> SweepPlan<'c> {
    /// Builds the plan for sweeping `circuit` with `backend`, computing a
    /// fresh schedule. Prefer [`SweepPlan::with_schedule`] plus a
    /// [`ScheduleCache`] when evaluating many circuits of few topologies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] when a wavelength-independent model
    /// rejects its settings (dispersive models are evaluated per point and
    /// report their errors from [`SweepPlan::evaluate_into`] instead).
    pub fn new(circuit: &'c Circuit, backend: Backend) -> Result<Self, SimError> {
        SweepPlan::with_schedule(
            circuit,
            backend,
            Arc::new(SweepSchedule::for_circuit(circuit)),
        )
    }

    /// Builds the plan for `circuit` on a prebuilt (typically cached)
    /// schedule of the same topology.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's port count disagrees with the circuit —
    /// a schedule reused across topologies is a caller bug.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] when a wavelength-independent model
    /// rejects its settings.
    pub fn with_schedule(
        circuit: &'c Circuit,
        backend: Backend,
        schedule: Arc<SweepSchedule>,
    ) -> Result<Self, SimError> {
        assert_eq!(
            schedule.total_ports, circuit.total_ports,
            "schedule was built for a different topology"
        );
        // Memoize every wavelength-independent instance once.
        let mut memos = Vec::with_capacity(circuit.instances.len());
        for inst in &circuit.instances {
            let mut memo = SMatrixMemo::new();
            if inst.model.is_wavelength_independent(&inst.settings) {
                memo.get_or_eval(inst.model.as_ref(), MEMO_WAVELENGTH_UM, &inst.settings)
                    .map_err(|source| SimError::Model {
                        instance: inst.name.clone(),
                        source,
                    })?;
            }
            memos.push(memo);
        }

        Ok(SweepPlan {
            circuit,
            backend,
            schedule,
            memos,
            allow_constant_fold: true,
            kernels: simd::default_kernels(),
        })
    }

    /// Enables or disables the constant-response fold for fully
    /// wavelength-independent circuits (enabled by default). Disabling it
    /// forces sweeps to solve every grid point — it also switches the
    /// block-sparse factor-once stripe batching off — the pre-fold
    /// (PR-1) behavior, useful for benchmarking the per-point solver;
    /// results are bit-identical either way.
    pub fn with_constant_fold(mut self, enabled: bool) -> Self {
        self.allow_constant_fold = enabled;
        self
    }

    /// Runs the block-sparse solve on `kernels` instead of the default
    /// table ([`simd::default_kernels`]) — e.g. [`simd::scalar_kernels`]
    /// for the reference arithmetic. The table belongs to the plan, so
    /// plans on different tables can sweep concurrently, and every
    /// worker of a parallel sweep uses this one.
    pub fn with_kernels(mut self, kernels: &'static Kernels) -> Self {
        self.kernels = kernels;
        self
    }

    /// The circuit this plan was built for.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The composition backend this plan executes.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The underlying topology schedule.
    pub fn schedule(&self) -> &Arc<SweepSchedule> {
        &self.schedule
    }

    /// Number of external ports.
    pub fn external_count(&self) -> usize {
        self.schedule.ext_idx.len()
    }

    /// How many instances are served from the wavelength-independent memo
    /// (diagnostics; the rest are re-evaluated at every point).
    pub fn memoized_instance_count(&self) -> usize {
        self.memos.iter().filter(|m| m.is_cached()).count()
    }

    /// Whether *every* instance is served from the memo. The composed
    /// response of such a circuit is the same at every wavelength, so
    /// sweeps evaluate a single point and replicate it — bit-identical to
    /// solving each grid point, at 1/points the cost. (Interconnect
    /// meshes — phase shifters, couplers, crossings — are the heavyweight
    /// beneficiaries.)
    pub fn is_wavelength_independent(&self) -> bool {
        self.memos.iter().all(|m| m.is_cached())
    }

    /// Whether sweeps over this plan may apply the constant-response
    /// fold: the fold is enabled and every instance is memoized.
    pub fn folds_to_constant(&self) -> bool {
        self.allow_constant_fold && self.is_wavelength_independent()
    }

    /// Allocates a workspace sized for this plan, with all memoized blocks
    /// already written into the global matrix.
    pub fn workspace(&self) -> SolveWorkspace {
        let mut ws = SolveWorkspace::new();
        self.reset_workspace(&mut ws);
        ws
    }

    /// Re-targets an existing workspace at this plan, reusing its buffers:
    /// sizes every matrix for this circuit, zeroes the global matrix and
    /// rewrites the memoized blocks. After the call the workspace is
    /// indistinguishable from a fresh [`SweepPlan::workspace`] — which is
    /// what lets an evaluator keep one workspace across many circuits
    /// without re-allocating at every candidate.
    pub fn reset_workspace(&self, ws: &mut SolveWorkspace) {
        let n0 = self.schedule.total_ports;
        let n_int = self.schedule.int_idx.len();
        let n_ext = self.schedule.ext_idx.len();
        ws.global.reshape(n0, n0);
        // The staging matrix is block-diagonal by instance, and every
        // block-sparse read of it (matrix/RHS scatters, ee/ei combine
        // terms) stays inside one instance's diagonal block — written by
        // `write_block` before any read (memoized below, dispersive per
        // point). Only the dense gather and the elimination oracle, which
        // also read the zero cross-instance entries, need all n0² entries
        // cleared.
        if self.backend != Backend::BlockSparse {
            ws.global.fill_zero();
        }
        for (inst, memo) in self.circuit.instances.iter().zip(&self.memos) {
            if let Some(block) = memo.cached() {
                write_block(&mut ws.global, inst.port_offset, block.matrix());
            }
        }
        // Only the active backend's buffers are sized — the others stay
        // empty (or keep stale capacity for later reuse) and are never
        // read. The elimination oracle needs nothing beyond the global
        // matrix.
        match self.backend {
            Backend::Dense => {
                ws.system.reshape(n_int, n_int);
                ws.rhs.reshape(n_int, n_ext);
                ws.x.reshape(n_int, n_ext);
            }
            Backend::PortElimination => {}
            Backend::BlockSparse => {
                // Baselines: the wavelength-independent part of the
                // system assembly (identity + every memoized instance)
                // imaged once; per-point assembly copies the image and
                // scatters only the dispersive instances.
                let sched = &self.schedule.block;
                ws.bs_baseline.resize_zero(sched.sym.values_len());
                ws.bs_rhs_baseline.resize_zero(sched.n_int * sched.n_ext);
                sched.scatter_identity(&mut ws.bs_baseline);
                for (ii, memo) in self.memos.iter().enumerate() {
                    if memo.is_cached() {
                        sched.scatter_matrix_instance(ii, &ws.global, &mut ws.bs_baseline);
                        sched.scatter_rhs_instance(ii, &ws.global, &mut ws.bs_rhs_baseline);
                    }
                }
            }
        }
    }

    /// Evaluates the external S-matrix at one wavelength into `out`
    /// (reshaped to `n_ext × n_ext`), reusing `ws` for every intermediate.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::evaluate`]: [`SimError::Model`] when a dispersive
    /// model fails, [`SimError::SingularSystem`] on an undamped resonant
    /// loop, [`SimError::NonFiniteResult`] on a non-finite response.
    pub fn evaluate_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        self.refresh_dispersive(ws, wavelength_um)?;
        match self.backend {
            Backend::Dense => self.evaluate_dense(ws, wavelength_um, out)?,
            Backend::PortElimination => {
                *out = eliminate_ports(self.circuit, ws.global.clone(), wavelength_um)?;
            }
            Backend::BlockSparse => self.evaluate_block_sparse(ws, wavelength_um, out)?,
        }
        if !out.is_finite() {
            return Err(SimError::NonFiniteResult { wavelength_um });
        }
        Ok(())
    }

    /// Refreshes the dispersive blocks of the global matrix; memoized
    /// blocks were written at workspace construction and never change.
    fn refresh_dispersive(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
    ) -> Result<(), SimError> {
        for (inst, memo) in self.circuit.instances.iter().zip(&self.memos) {
            if memo.is_cached() {
                continue;
            }
            let s = inst
                .model
                .s_matrix(wavelength_um, &inst.settings)
                .map_err(|source| SimError::Model {
                    instance: inst.name.clone(),
                    source,
                })?;
            write_block(&mut ws.global, inst.port_offset, s.matrix());
        }
        Ok(())
    }

    /// Whether a batched sweep over this plan may factor the scattering
    /// system **once** and reuse the solved panel for every wavelength
    /// point of a stripe: the BlockSparse backend, with every instance
    /// that feeds the system matrix, the RHS panel or the `S_ei` combine
    /// coefficients served from the wavelength-independent memo. (Only
    /// instances with no internal ports may then still be dispersive —
    /// they contribute `S_ee` entries re-read at every point.)
    pub fn stripe_factors_once(&self) -> bool {
        self.backend == Backend::BlockSparse
            && self.memos.iter().enumerate().all(|(ii, memo)| {
                memo.is_cached() || !self.schedule.block.instance_touches_system(ii)
            })
    }

    /// How a stripe of `points` grid points executes over this plan —
    /// the single source of truth for the batching eligibility shared by
    /// [`SweepPlan::evaluate_stripe_into`] and the sweep executor's
    /// chunk runner (which must branch identically to keep serial and
    /// parallel sweeps bit-identical).
    ///
    /// Disabling the constant fold ([`SweepPlan::with_constant_fold`])
    /// also disables the factor-once stripe modes: "solve every grid
    /// point" must mean exactly that, both for benchmarking and so the
    /// conformance fold axis compares a genuinely recomputed sweep.
    pub(crate) fn stripe_mode(&self, points: usize) -> StripeMode {
        if points > 1 && self.allow_constant_fold && self.stripe_factors_once() {
            if self.is_wavelength_independent() {
                StripeMode::FactorOnceCopy
            } else {
                StripeMode::FactorOnceRecombine
            }
        } else {
            StripeMode::PerPoint
        }
    }

    /// Evaluates a stripe of wavelength points in one batched pass,
    /// writing one external S-matrix per point into `outs`.
    ///
    /// When [`SweepPlan::stripe_factors_once`] holds, the system is
    /// assembled and factored for the first point only and the solved
    /// panel of RHS columns is reused across the whole stripe —
    /// per-point work drops to refreshing dispersive `S_ee` entries and
    /// recombining (or a plain copy when the circuit is fully
    /// wavelength-independent). Otherwise every point runs the full
    /// [`SweepPlan::evaluate_into`]. Results are element-wise identical
    /// to per-point evaluation in all cases, and the steady-state stripe
    /// performs zero heap allocations (see `tests/alloc.rs`).
    ///
    /// # Errors
    ///
    /// Returns the stripe-local index and [`SimError`] of the first
    /// failing point.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` and `outs` have different lengths.
    pub fn evaluate_stripe_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelengths: &[f64],
        outs: &mut [CMatrix],
    ) -> Result<(), (usize, SimError)> {
        assert_eq!(
            wavelengths.len(),
            outs.len(),
            "one output matrix per stripe wavelength"
        );
        match self.stripe_mode(outs.len()) {
            StripeMode::PerPoint => {
                for (offset, (&wl, out)) in wavelengths.iter().zip(outs.iter_mut()).enumerate() {
                    self.evaluate_into(ws, wl, out).map_err(|e| (offset, e))?;
                }
            }
            mode @ (StripeMode::FactorOnceCopy | StripeMode::FactorOnceRecombine) => {
                let (first_out, rest) = outs.split_first_mut().expect("points > 1");
                self.evaluate_into(ws, wavelengths[0], first_out)
                    .map_err(|e| (0, e))?;
                for (offset, out) in rest.iter_mut().enumerate() {
                    match mode {
                        StripeMode::FactorOnceCopy => out.copy_from(first_out),
                        _ => self
                            .evaluate_retained_into(ws, wavelengths[offset + 1], out)
                            .map_err(|e| (offset + 1, e))?,
                    }
                }
            }
        }
        Ok(())
    }

    /// Recombines the external response at a new wavelength from the
    /// factored system and solved panel retained in `ws` by the previous
    /// [`SweepPlan::evaluate_into`] on this plan. Only meaningful when
    /// [`SweepPlan::stripe_factors_once`] holds (the retained solve is
    /// wavelength-independent then); per-point work reduces to the
    /// dispersive `S_ee` refresh and the sparse combine.
    pub(crate) fn evaluate_retained_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        debug_assert!(self.stripe_factors_once());
        self.refresh_dispersive(ws, wavelength_um)?;
        self.schedule
            .block
            .combine(self.kernels, &ws.global, &ws.bs_x, &mut ws.bs_stage, out);
        if !out.is_finite() {
            return Err(SimError::NonFiniteResult { wavelength_um });
        }
        Ok(())
    }

    /// Block-sparse scattering solve on the frozen block schedule:
    /// baseline image + dispersive scatter, numeric factor against the
    /// shared symbolic object, one panel solve for all `n_ext` RHS
    /// columns, sparse recombination.
    fn evaluate_block_sparse(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        let sched = &self.schedule.block;
        if sched.n_int == 0 {
            ws.bs_x.clear();
            sched.combine(self.kernels, &ws.global, &ws.bs_x, &mut ws.bs_stage, out);
            return Ok(());
        }
        ws.bs_lu.set_kernels(self.kernels);
        ws.bs_lu.load(&ws.bs_baseline);
        ws.bs_x.copy_from(&ws.bs_rhs_baseline);
        for (ii, memo) in self.memos.iter().enumerate() {
            if memo.is_cached() {
                continue;
            }
            sched.scatter_matrix_instance(ii, &ws.global, ws.bs_lu.values_mut());
            sched.scatter_rhs_instance(ii, &ws.global, &mut ws.bs_x);
        }
        ws.bs_lu
            .factor(&sched.sym)
            .map_err(|_| SimError::SingularSystem { wavelength_um })?;
        ws.bs_lu
            .solve_in_place(&sched.sym, &mut ws.bs_x, sched.n_ext);
        sched.combine(self.kernels, &ws.global, &ws.bs_x, &mut ws.bs_stage, out);
        Ok(())
    }

    /// Dense global scattering solve
    /// `S_ext = S_ee + S_ei (I − P·S_ii)⁻¹ P·S_ie`, with the permutation
    /// folded into gather indices and all products running on workspace
    /// buffers.
    fn evaluate_dense(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        let sched = &*self.schedule;
        let n_int = sched.int_idx.len();
        let n_ext = sched.ext_idx.len();
        out.reshape(n_ext, n_ext);

        if n_int == 0 {
            for r in 0..n_ext {
                for c in 0..n_ext {
                    *out.at_mut(r, c) = ws.global.at(sched.ext_idx[r], sched.ext_idx[c]);
                }
            }
            return Ok(());
        }

        // system = I − P·S_ii and rhs = P·S_ie, gathered straight from the
        // global matrix through the pre-permuted row indices.
        ws.system.reshape(n_int, n_int);
        ws.rhs.reshape(n_int, n_ext);
        for r in 0..n_int {
            let src_r = sched.perm_int_idx[r];
            for c in 0..n_int {
                let v = ws.global.at(src_r, sched.int_idx[c]);
                *ws.system.at_mut(r, c) = if r == c { Complex::ONE - v } else { -v };
            }
            for c in 0..n_ext {
                *ws.rhs.at_mut(r, c) = ws.global.at(src_r, sched.ext_idx[c]);
            }
        }

        ws.lu
            .factor_into(&ws.system)
            .map_err(|_| SimError::SingularSystem { wavelength_um })?;
        ws.lu.solve_matrix_into(&ws.rhs, &mut ws.x);

        // S_ext = S_ee + S_ei · X, with S_ee and S_ei read directly from
        // the global matrix.
        for r in 0..n_ext {
            let g_r = sched.ext_idx[r];
            for c in 0..n_ext {
                let mut acc = Complex::ZERO;
                for (k, &g_k) in sched.int_idx.iter().enumerate() {
                    acc += ws.global.at(g_r, g_k) * ws.x.at(k, c);
                }
                *out.at_mut(r, c) = ws.global.at(g_r, sched.ext_idx[c]) + acc;
            }
        }
        Ok(())
    }
}

/// How a stripe of grid points executes over a plan — decided once by
/// [`SweepPlan::stripe_mode`] and obeyed by both stripe drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StripeMode {
    /// Solve the first point, copy its matrix into every other slot
    /// (fully wavelength-independent circuit).
    FactorOnceCopy,
    /// Solve the first point, recombine the retained panel per point
    /// (static system, dispersive `S_ee`-only instances).
    FactorOnceRecombine,
    /// Full evaluation at every point.
    PerPoint,
}

/// Copies a model block onto the diagonal of the global matrix.
fn write_block(global: &mut CMatrix, offset: usize, block: &CMatrix) {
    let n = block.rows();
    for r in 0..n {
        for c in 0..n {
            *global.at_mut(offset + r, offset + c) = block.at(r, c);
        }
    }
}

/// Reusable per-worker storage for the per-point solve. Create via
/// [`SweepPlan::workspace`] (or re-target an existing one with
/// [`SweepPlan::reset_workspace`]); all buffers are sized once and reused,
/// so the steady-state point loop never touches the allocator.
#[derive(Debug)]
pub struct SolveWorkspace {
    /// Assembled block-diagonal global S-matrix.
    global: CMatrix,
    /// `I − P·S_ii` (Dense).
    system: CMatrix,
    /// `P·S_ie` (Dense).
    rhs: CMatrix,
    /// `(I − P·S_ii)⁻¹ P·S_ie` (Dense).
    x: CMatrix,
    /// LU factors + pivot permutation, re-factored in place per point.
    lu: LuDecomposition,
    /// Numeric block-sparse factor, re-factored per point on the serving
    /// plan's kernel table (BlockSparse).
    bs_lu: BlockSparseLu,
    /// Baseline image of the wavelength-independent system assembly
    /// (split-complex, the solver's panel layout).
    bs_baseline: SplitComplexVec,
    /// Baseline image of the wavelength-independent RHS panel.
    bs_rhs_baseline: SplitComplexVec,
    /// RHS panel, solved in place into the internal-wave solution `X`.
    bs_x: SplitComplexVec,
    /// Split staging buffer for the `S_ee + S_ei·X` combine.
    bs_stage: SplitComplexVec,
}

impl SolveWorkspace {
    /// An empty workspace. Any plan can adopt it via
    /// [`SweepPlan::reset_workspace`]; its buffers then grow to the
    /// largest circuit seen and are reused thereafter.
    pub fn new() -> Self {
        SolveWorkspace {
            global: CMatrix::zeros(0, 0),
            system: CMatrix::zeros(0, 0),
            rhs: CMatrix::zeros(0, 0),
            x: CMatrix::zeros(0, 0),
            lu: LuDecomposition::empty(),
            bs_lu: BlockSparseLu::new(),
            bs_baseline: SplitComplexVec::new(),
            bs_rhs_baseline: SplitComplexVec::new(),
            bs_x: SplitComplexVec::new(),
            bs_stage: SplitComplexVec::new(),
        }
    }
}

impl Default for SolveWorkspace {
    fn default() -> Self {
        SolveWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::evaluate;
    use crate::registry::ModelRegistry;
    use picbench_netlist::{Netlist, NetlistBuilder};

    fn elaborate(netlist: &Netlist) -> Circuit {
        let registry = ModelRegistry::with_builtins();
        Circuit::elaborate(netlist, &registry, None).unwrap()
    }

    fn mzi_from_parts() -> Netlist {
        NetlistBuilder::new()
            .instance("split", "mmi1x2")
            .instance("combine", "mmi1x2")
            .instance_with("top", "waveguide", &[("length", 10.0)])
            .instance_with("bottom", "waveguide", &[("length", 25.0)])
            .connect("split,O1", "top,I1")
            .connect("split,O2", "bottom,I1")
            .connect("top,O1", "combine,O1")
            .connect("bottom,O1", "combine,O2")
            .port("I1", "split,I1")
            .port("O1", "combine,I1")
            .model("mmi1x2", "mmi1x2")
            .model("waveguide", "waveguide")
            .build()
    }

    #[test]
    fn plan_matches_naive_evaluate_on_both_backends() {
        let circuit = elaborate(&mzi_from_parts());
        for backend in Backend::ALL {
            let plan = SweepPlan::new(&circuit, backend).unwrap();
            let mut ws = plan.workspace();
            let mut out = CMatrix::zeros(0, 0);
            let mut wl = 1.51;
            while wl <= 1.59 {
                plan.evaluate_into(&mut ws, wl, &mut out).unwrap();
                let naive = evaluate(&circuit, wl, backend).unwrap();
                assert!(
                    out.max_abs_diff(naive.matrix()) < 1e-12,
                    "{backend} disagrees at {wl}: {:.3e}",
                    out.max_abs_diff(naive.matrix())
                );
                wl += 0.01;
            }
        }
    }

    #[test]
    fn plan_memoizes_dispersionless_instances() {
        let circuit = elaborate(&mzi_from_parts());
        let plan = SweepPlan::new(&circuit, Backend::Dense).unwrap();
        // The two MMIs are wavelength-independent; the two waveguides are
        // not.
        assert_eq!(plan.memoized_instance_count(), 2);
    }

    #[test]
    fn workspace_reuse_is_stable() {
        // Evaluating the same wavelength twice through one workspace must
        // be bit-identical — stale state may not leak between points.
        let circuit = elaborate(&mzi_from_parts());
        for backend in Backend::ALL {
            let plan = SweepPlan::new(&circuit, backend).unwrap();
            let mut ws = plan.workspace();
            let mut first = CMatrix::zeros(0, 0);
            let mut again = CMatrix::zeros(0, 0);
            plan.evaluate_into(&mut ws, 1.55, &mut first).unwrap();
            plan.evaluate_into(&mut ws, 1.532, &mut again).unwrap();
            plan.evaluate_into(&mut ws, 1.55, &mut again).unwrap();
            assert_eq!(first, again, "{backend}");
        }
    }

    #[test]
    fn reset_workspace_matches_fresh_workspace() {
        // A workspace left dirty by a *different* (larger) circuit must be
        // fully re-targeted: same bits as a fresh workspace.
        let big = elaborate(&mzi_from_parts());
        let small_netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let small = elaborate(&small_netlist);
        for backend in Backend::ALL {
            let big_plan = SweepPlan::new(&big, backend).unwrap();
            let small_plan = SweepPlan::new(&small, backend).unwrap();
            let mut ws = big_plan.workspace();
            let mut scratch = CMatrix::zeros(0, 0);
            big_plan.evaluate_into(&mut ws, 1.55, &mut scratch).unwrap();
            // Re-target the dirty workspace at the small circuit.
            small_plan.reset_workspace(&mut ws);
            let mut reused = CMatrix::zeros(0, 0);
            small_plan
                .evaluate_into(&mut ws, 1.55, &mut reused)
                .unwrap();
            let mut fresh_ws = small_plan.workspace();
            let mut fresh = CMatrix::zeros(0, 0);
            small_plan
                .evaluate_into(&mut fresh_ws, 1.55, &mut fresh)
                .unwrap();
            assert_eq!(reused, fresh, "{backend}");
        }
    }

    #[test]
    fn schedule_cache_shares_topologies() {
        let a = elaborate(&mzi_from_parts());
        // Same topology, different settings.
        let mut tweaked = mzi_from_parts();
        tweaked
            .instances
            .get_mut("top")
            .unwrap()
            .settings
            .insert("length".to_string(), 40.0);
        let b = elaborate(&tweaked);
        let mut cache = ScheduleCache::new();
        let sa = cache.get_or_build(&a);
        let sb = cache.get_or_build(&b);
        assert!(Arc::ptr_eq(&sa, &sb), "same topology must share a schedule");
        assert_eq!(cache.len(), 1);

        // A cached-schedule plan computes the same bits as a fresh plan.
        for backend in Backend::ALL {
            let cached_plan = SweepPlan::with_schedule(&b, backend, Arc::clone(&sb)).unwrap();
            let fresh_plan = SweepPlan::new(&b, backend).unwrap();
            let mut ws_c = cached_plan.workspace();
            let mut ws_f = fresh_plan.workspace();
            let mut out_c = CMatrix::zeros(0, 0);
            let mut out_f = CMatrix::zeros(0, 0);
            cached_plan
                .evaluate_into(&mut ws_c, 1.547, &mut out_c)
                .unwrap();
            fresh_plan
                .evaluate_into(&mut ws_f, 1.547, &mut out_f)
                .unwrap();
            assert_eq!(out_c, out_f, "{backend}");
        }
    }

    #[test]
    fn no_connections_circuit_short_circuits() {
        let netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);
        for backend in Backend::ALL {
            let plan = SweepPlan::new(&circuit, backend).unwrap();
            let mut ws = plan.workspace();
            let mut out = CMatrix::zeros(0, 0);
            plan.evaluate_into(&mut ws, 1.55, &mut out).unwrap();
            let naive = evaluate(&circuit, 1.55, backend).unwrap();
            assert!(out.max_abs_diff(naive.matrix()) < 1e-14);
        }
    }

    #[test]
    fn model_errors_carry_instance_names() {
        let netlist = NetlistBuilder::new()
            .instance_with("badcoupler", "coupler", &[("coupling", 2.0)])
            .port("I1", "badcoupler,I1")
            .port("O1", "badcoupler,O1")
            .model("coupler", "coupler")
            .build();
        let circuit = elaborate(&netlist);
        // The coupler is wavelength-independent, so the invalid setting
        // surfaces at plan construction.
        let err = SweepPlan::new(&circuit, Backend::Dense).unwrap_err();
        match &err {
            SimError::Model { instance, .. } => assert_eq!(instance, "badcoupler"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
