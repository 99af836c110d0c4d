//! S-parameter composition backends.
//!
//! Three independent algorithms compute the external scattering matrix of
//! an elaborated circuit:
//!
//! * [`Backend::BlockSparse`] — the scattering system
//!   `(I − P·S_ii)·X = P·S_ie` factored by the topology-aware block-sparse
//!   LU ([`picbench_math::sparse`]): unknowns grouped by instance, a
//!   fill-reducing elimination order over the connectivity graph, and
//!   dense pivoting confined to diagonal blocks. The default and the one
//!   production solver — the KLU-style sparse solve SAX, the paper's
//!   simulator, defaults to as well.
//! * [`Backend::Dense`] — the same system solved by the in-repo dense
//!   complex LU: `S_ext = S_ee + S_ei (I − P·S_ii)⁻¹ P·S_ie`, where `P`
//!   swaps connected port pairs.
//! * [`Backend::PortElimination`] — Filipsson's subnetwork-growth
//!   algorithm: place all instance S-matrices block-diagonally, then
//!   eliminate each internal connection pairwise with the two-port
//!   interconnect formula. O(C·P²) with fresh matrices per connection and
//!   no linear solve — kept as a naive oracle, the one algorithm that
//!   shares no solver code with the other two.
//!
//! Having several lets the conformance gate cross-check the physics: the
//! backends agree on every benchmark golden design to ~1e-9.

use crate::blocks::BlockSchedule;
use crate::elaborate::Circuit;
use picbench_math::{simd, BlockSparseLu, CMatrix, Complex, LuDecomposition, SplitComplexVec};
use picbench_sparams::{ModelError, SMatrix};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Which composition algorithm to use.
///
/// [`Backend::BlockSparse`] is the default, so every production caller
/// (campaigns, goldens, server sessions) runs it; the other two remain
/// selectable as conformance oracles. The SIMD kernel table the
/// block-sparse solve runs on is not part of the backend: it is a plan
/// option ([`crate::SweepPlan::with_kernels`]), defaulting to the widest
/// tier the CPU supports (scalar under `PICBENCH_FORCE_SCALAR=1`).
///
/// Evaluation-cache and store keys carry the backend token, so responses
/// cached under one backend are never served for another: a store
/// journalled under a different default misses and recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Filipsson pairwise port elimination (naive oracle).
    PortElimination,
    /// Dense global scattering solve with LU.
    Dense,
    /// Topology-aware block-sparse scattering solve (default).
    #[default]
    BlockSparse,
}

impl Backend {
    /// Every composition algorithm — the axis the conformance harness
    /// sweeps when cross-checking backends.
    pub const ALL: [Backend; 3] = [
        Backend::PortElimination,
        Backend::Dense,
        Backend::BlockSparse,
    ];

    /// Stable kebab-case token used in CLI flags and reports.
    pub fn token(&self) -> &'static str {
        match self {
            Backend::PortElimination => "port-elimination",
            Backend::Dense => "dense",
            Backend::BlockSparse => "block-sparse",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::ALL
            .iter()
            .find(|b| b.token() == s)
            .copied()
            .ok_or_else(|| format!("unknown backend {s:?}"))
    }
}

/// Error while evaluating a circuit at a wavelength.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A component model rejected its settings or the wavelength.
    Model {
        /// Instance whose model failed.
        instance: String,
        /// The underlying model error.
        source: ModelError,
    },
    /// The global scattering system is singular (a lossless resonant loop
    /// at exactly this wavelength).
    SingularSystem {
        /// Wavelength at which the solve failed.
        wavelength_um: f64,
    },
    /// The computed response contains non-finite values.
    NonFiniteResult {
        /// Wavelength at which it happened.
        wavelength_um: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model { instance, source } => {
                write!(f, "instance '{instance}': {source}")
            }
            SimError::SingularSystem { wavelength_um } => write!(
                f,
                "scattering system is singular at {wavelength_um} um (undamped resonant loop)"
            ),
            SimError::NonFiniteResult { wavelength_um } => {
                write!(f, "non-finite S-parameters at {wavelength_um} um")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Evaluates every instance model and assembles the block-diagonal global
/// S-matrix.
fn assemble_global(circuit: &Circuit, wavelength_um: f64) -> Result<CMatrix, SimError> {
    let mut global = CMatrix::zeros(circuit.total_ports, circuit.total_ports);
    for inst in &circuit.instances {
        let s = inst
            .model
            .s_matrix(wavelength_um, &inst.settings)
            .map_err(|source| SimError::Model {
                instance: inst.name.clone(),
                source,
            })?;
        let n = s.dim();
        let m = s.matrix();
        for r in 0..n {
            for c in 0..n {
                global[(inst.port_offset + r, inst.port_offset + c)] = m[(r, c)];
            }
        }
    }
    Ok(global)
}

/// Evaluates the circuit's external S-matrix at one wavelength.
///
/// # Errors
///
/// Returns [`SimError`] when a model fails, the system is singular, or the
/// result is non-finite.
pub fn evaluate(
    circuit: &Circuit,
    wavelength_um: f64,
    backend: Backend,
) -> Result<SMatrix, SimError> {
    let result = match backend {
        Backend::Dense => evaluate_dense(circuit, wavelength_um),
        Backend::PortElimination => evaluate_elimination(circuit, wavelength_um),
        Backend::BlockSparse => evaluate_block_sparse(circuit, wavelength_um),
    }?;
    if !result.matrix().is_finite() {
        return Err(SimError::NonFiniteResult { wavelength_um });
    }
    Ok(result)
}

fn evaluate_dense(circuit: &Circuit, wavelength_um: f64) -> Result<SMatrix, SimError> {
    let global = assemble_global(circuit, wavelength_um)?;

    // Partition global ports: external vs. internal (connected).
    let ext_idx: Vec<usize> = circuit.externals.iter().map(|(_, i)| *i).collect();
    let mut int_idx: Vec<usize> = Vec::with_capacity(circuit.connections.len() * 2);
    for &(a, b) in &circuit.connections {
        int_idx.push(a);
        int_idx.push(b);
    }
    // Position of each internal port inside int_idx, for the permutation.
    let mut pos_of = std::collections::HashMap::new();
    for (pos, &g) in int_idx.iter().enumerate() {
        pos_of.insert(g, pos);
    }
    // swap[p] = the position of the port connected to int_idx[p].
    let mut swap = vec![0usize; int_idx.len()];
    for &(a, b) in &circuit.connections {
        let pa = pos_of[&a];
        let pb = pos_of[&b];
        swap[pa] = pb;
        swap[pb] = pa;
    }

    let s_ee = global.submatrix(&ext_idx, &ext_idx);
    let s_ei = global.submatrix(&ext_idx, &int_idx);
    let s_ie = global.submatrix(&int_idx, &ext_idx);
    let s_ii = global.submatrix(&int_idx, &int_idx);

    if int_idx.is_empty() {
        return Ok(SMatrix::from_matrix(circuit.external_names(), s_ee));
    }

    // P·M permutes rows: (P·M)[r] = M[swap(r)].
    let permute_rows =
        |m: &CMatrix| -> CMatrix { CMatrix::from_fn(m.rows(), m.cols(), |r, c| m[(swap[r], c)]) };
    let p_s_ii = permute_rows(&s_ii);
    let p_s_ie = permute_rows(&s_ie);

    let n_int = int_idx.len();
    let system = &CMatrix::identity(n_int) - &p_s_ii;
    let lu =
        LuDecomposition::factor(&system).map_err(|_| SimError::SingularSystem { wavelength_um })?;
    let x = lu.solve_matrix(&p_s_ie);
    let s_ext = &s_ee + &(&s_ei * &x);
    Ok(SMatrix::from_matrix(circuit.external_names(), s_ext))
}

/// The naive block-sparse solve: rebuild the block structure, the
/// symbolic analysis and the assembly from scratch at this one
/// wavelength, on the default kernel table. The planned pipeline
/// ([`crate::SweepPlan`]) runs the same arithmetic with the structure
/// frozen once per topology.
fn evaluate_block_sparse(circuit: &Circuit, wavelength_um: f64) -> Result<SMatrix, SimError> {
    let global = assemble_global(circuit, wavelength_um)?;
    let sched = BlockSchedule::for_circuit(circuit);
    let kernels = simd::default_kernels();
    let mut lu = BlockSparseLu::with_kernels(kernels);
    lu.reset(&sched.sym);
    let mut rhs = SplitComplexVec::new();
    rhs.resize_zero(sched.n_int * sched.n_ext);
    sched.scatter_all(circuit.instances.len(), &global, lu.values_mut(), &mut rhs);
    lu.factor(&sched.sym)
        .map_err(|_| SimError::SingularSystem { wavelength_um })?;
    lu.solve_in_place(&sched.sym, &mut rhs, sched.n_ext);
    let mut out = CMatrix::zeros(0, 0);
    let mut stage = SplitComplexVec::new();
    sched.combine(kernels, &global, &rhs, &mut stage, &mut out);
    Ok(SMatrix::from_matrix(circuit.external_names(), out))
}

fn evaluate_elimination(circuit: &Circuit, wavelength_um: f64) -> Result<SMatrix, SimError> {
    let global = assemble_global(circuit, wavelength_um)?;
    let s_ext = eliminate_ports(circuit, global, wavelength_um)?;
    Ok(SMatrix::from_matrix(circuit.external_names(), s_ext))
}

/// Filipsson's reduction of an assembled block-diagonal global matrix to
/// the external S-matrix: one pairwise elimination per connection, each
/// building the reduced matrix afresh. Deliberately unoptimized — it is
/// the oracle the solver backends are checked against, and plans
/// ([`crate::SweepPlan`]) run it unchanged on their assembled matrix.
pub(crate) fn eliminate_ports(
    circuit: &Circuit,
    mut m: CMatrix,
    wavelength_um: f64,
) -> Result<CMatrix, SimError> {
    // active[g] = current row/col of global port g, or usize::MAX if gone.
    let n0 = circuit.total_ports;
    let mut index: Vec<usize> = (0..n0).collect();
    const GONE: usize = usize::MAX;

    for &(ga, gb) in &circuit.connections {
        let p = index[ga];
        let q = index[gb];
        debug_assert!(p != GONE && q != GONE, "port connected twice");
        let n = m.rows();

        let s_pq = m[(p, q)];
        let s_qp = m[(q, p)];
        let s_pp = m[(p, p)];
        let s_qq = m[(q, q)];
        let denom = (Complex::ONE - s_pq) * (Complex::ONE - s_qp) - s_pp * s_qq;
        if denom.abs() < 1e-300 {
            return Err(SimError::SingularSystem { wavelength_um });
        }
        let inv_d = denom.recip();

        // Surviving rows/cols in the old matrix.
        let keep: Vec<usize> = (0..n).filter(|&k| k != p && k != q).collect();
        let mut next = CMatrix::zeros(n - 2, n - 2);
        for (ri, &i) in keep.iter().enumerate() {
            let s_ip = m[(i, p)];
            let s_iq = m[(i, q)];
            for (cj, &j) in keep.iter().enumerate() {
                let s_qj = m[(q, j)];
                let s_pj = m[(p, j)];
                let numer = s_qj * (Complex::ONE - s_pq) * s_ip
                    + s_pj * s_qq * s_ip
                    + s_pj * (Complex::ONE - s_qp) * s_iq
                    + s_qj * s_pp * s_iq;
                next[(ri, cj)] = m[(i, j)] + numer * inv_d;
            }
        }

        // Re-index the surviving global ports.
        let mut new_pos = vec![GONE; n];
        for (ri, &old) in keep.iter().enumerate() {
            new_pos[old] = ri;
        }
        for gi in index.iter_mut() {
            if *gi != GONE {
                *gi = new_pos[*gi];
            }
        }
        m = next;
    }

    // Select external rows/cols from the reduced matrix.
    let ext_rows: Vec<usize> = circuit.externals.iter().map(|(_, g)| index[*g]).collect();
    debug_assert!(ext_rows.iter().all(|&r| r != GONE));
    Ok(m.submatrix(&ext_rows, &ext_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::Circuit;
    use crate::registry::ModelRegistry;
    use picbench_netlist::{Netlist, NetlistBuilder};

    fn elaborate(netlist: &Netlist) -> Circuit {
        let registry = ModelRegistry::with_builtins();
        Circuit::elaborate(netlist, &registry, None).unwrap()
    }

    fn two_waveguide_chain(lengths: (f64, f64)) -> Netlist {
        NetlistBuilder::new()
            .instance_with("wg1", "waveguide", &[("length", lengths.0), ("loss", 0.0)])
            .instance_with("wg2", "waveguide", &[("length", lengths.1), ("loss", 0.0)])
            .connect("wg1,O1", "wg2,I1")
            .port("I1", "wg1,I1")
            .port("O1", "wg2,O1")
            .model("waveguide", "waveguide")
            .build()
    }

    #[test]
    fn cascade_multiplies_transfers() {
        let circuit = elaborate(&two_waveguide_chain((7.0, 13.0)));
        let single = elaborate(
            &NetlistBuilder::new()
                .instance_with("wg", "waveguide", &[("length", 20.0), ("loss", 0.0)])
                .port("I1", "wg,I1")
                .port("O1", "wg,O1")
                .model("waveguide", "waveguide")
                .build(),
        );
        for backend in Backend::ALL {
            let chained = evaluate(&circuit, 1.55, backend).unwrap();
            let direct = evaluate(&single, 1.55, backend).unwrap();
            let a = chained.s("I1", "O1").unwrap();
            let b = direct.s("I1", "O1").unwrap();
            assert!((a - b).abs() < 1e-10, "{backend}: {a} vs {b}");
        }
    }

    #[test]
    fn backends_agree_on_mzi_circuit() {
        // Full MZI built from parts: splitter, two arms, combiner.
        let netlist = NetlistBuilder::new()
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
            .build();
        let circuit = elaborate(&netlist);
        let mut wl = 1.51;
        while wl <= 1.59 {
            let a = evaluate(&circuit, wl, Backend::PortElimination).unwrap();
            let b = evaluate(&circuit, wl, Backend::Dense).unwrap();
            assert!(
                a.max_abs_diff(&b) < 1e-9,
                "backends disagree at wl={wl}: {:.3e}",
                a.max_abs_diff(&b)
            );
            wl += 0.005;
        }
    }

    #[test]
    fn mzi_circuit_matches_builtin_mzi_model() {
        // The discrete MZI (above, ΔL = 15) must match the built-in `mzi`
        // model with the same ΔL and base length.
        let discrete = NetlistBuilder::new()
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
            .build();
        let builtin = NetlistBuilder::new()
            .instance_with("m", "mzi", &[("length", 10.0), ("delta_length", 15.0)])
            .port("I1", "m,I1")
            .port("O1", "m,O1")
            .model("mzi", "mzi")
            .build();
        let c1 = elaborate(&discrete);
        let c2 = elaborate(&builtin);
        for wl in [1.51, 1.53, 1.55, 1.57, 1.59] {
            let t1 = evaluate(&c1, wl, Backend::PortElimination)
                .unwrap()
                .s("I1", "O1")
                .unwrap();
            let t2 = evaluate(&c2, wl, Backend::PortElimination)
                .unwrap()
                .s("I1", "O1")
                .unwrap();
            assert!((t1 - t2).abs() < 1e-10, "wl={wl}: {t1} vs {t2}");
        }
    }

    #[test]
    fn open_internal_ports_absorb() {
        // A 1x2 splitter with one leg unconnected: half the power leaves
        // through the open leg and never returns.
        let netlist = NetlistBuilder::new()
            .instance("split", "mmi1x2")
            .port("I1", "split,I1")
            .port("O1", "split,O1")
            .model("mmi1x2", "mmi1x2")
            .build();
        let circuit = elaborate(&netlist);
        for backend in Backend::ALL {
            let s = evaluate(&circuit, 1.55, backend).unwrap();
            assert!((s.s("I1", "O1").unwrap().norm_sqr() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn no_connections_circuit() {
        let netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);
        for backend in Backend::ALL {
            let s = evaluate(&circuit, 1.55, backend).unwrap();
            assert!(s.s("I1", "O1").unwrap().abs() > 0.99);
        }
    }

    #[test]
    fn model_error_carries_instance_name() {
        let netlist = NetlistBuilder::new()
            .instance_with("badcoupler", "coupler", &[("coupling", 2.0)])
            .port("I1", "badcoupler,I1")
            .port("O1", "badcoupler,O1")
            .model("coupler", "coupler")
            .build();
        let circuit = elaborate(&netlist);
        let err = evaluate(&circuit, 1.55, Backend::PortElimination).unwrap_err();
        match &err {
            SimError::Model { instance, .. } => assert_eq!(instance, "badcoupler"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("badcoupler"));
    }

    #[test]
    fn ring_from_parts_matches_allpass_model() {
        // Build an all-pass ring discretely: a coupler whose cross ports
        // are joined by a waveguide loop of the ring circumference.
        let radius: f64 = 5.0;
        let circumference = 2.0 * std::f64::consts::PI * radius;
        let kappa = 0.1;
        let netlist = NetlistBuilder::new()
            .instance_with("dc", "coupler", &[("coupling", kappa)])
            .instance_with("loop", "waveguide", &[("length", circumference)])
            .connect("dc,O2", "loop,I1")
            .connect("loop,O1", "dc,I2")
            .port("I1", "dc,I1")
            .port("O1", "dc,O1")
            .model("coupler", "coupler")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);

        let registry = ModelRegistry::with_builtins();
        let ring = registry.get("ringap").unwrap();
        let mut settings = picbench_sparams::Settings::new();
        settings.insert("radius", radius);
        settings.insert("coupling", kappa);

        for wl in [1.52, 1.54, 1.551, 1.56, 1.58] {
            let builtin = ring.s_matrix(wl, &settings).unwrap();
            for backend in Backend::ALL {
                let discrete = evaluate(&circuit, wl, backend).unwrap();
                let a = discrete.s("I1", "O1").unwrap();
                let b = builtin.s("I1", "O1").unwrap();
                assert!(
                    (a.abs() - b.abs()).abs() < 1e-6,
                    "{backend} wl={wl}: |{a}| vs |{b}|"
                );
            }
        }
    }
}
