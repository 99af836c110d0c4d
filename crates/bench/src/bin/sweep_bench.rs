//! `sweep_bench` — before/after numbers for the plan/execute sweep
//! pipeline across all composition backends, written to
//! `BENCH_pipeline.json`.
//!
//! Two workloads:
//!
//! * **clements-8x8** — the reference "64-point × 16-port mesh" (36
//!   instances, 128 global ports) from PR 1;
//! * **clements-16x16** — the scaling workload (136 instances, 512
//!   global ports, 480 internal ports) over 16 points, where the gap
//!   between the dense O(n³) solve and the topology-aware block-sparse
//!   factorization widens decisively.
//!
//! For every backend (`dense`, `port-elimination`, `block-sparse`) both
//! paths are measured:
//!
//! * **naive** — [`sweep_naive`]: the original per-point rebuild
//!   (re-partition, re-analyze, re-allocate, re-factor at every point);
//! * **plan** — the [`SweepPlan`]/`SolveWorkspace` pipeline driven
//!   stripe by stripe ([`SweepPlan::evaluate_stripe_into`]; structure
//!   and symbolic analysis frozen once, allocation-free in-place
//!   solves, memoized dispersionless models, batched panel solves). The
//!   point loop is driven directly so the *per-point solve* is what
//!   gets timed: the production [`sweep`] entry point additionally
//!   recognizes these fully dispersionless meshes as
//!   wavelength-independent and folds the whole sweep into a single
//!   solve — wall-clock `points×` faster, but a degenerate measurement
//!   of the solver. For the same reason the block-sparse stripe is
//!   driven point by point here (its factor-once batching would
//!   likewise degenerate on a dispersionless mesh).
//!
//! The block-sparse plan is additionally re-measured on a plan built with
//! the scalar kernel table (`SweepPlan::with_kernels` with
//! `picbench_math::simd::scalar_kernels`), producing per-ISA rows
//! (`plan_by_isa`) and the `simd_speedup` of the detected vector tier
//! over scalar; the report records the default tier in `simd_level`.
//!
//! The `port-elimination` rows time the naive Filipsson oracle: it has no
//! optimized planned form, so its plan path only skips re-assembling the
//! memoized models.
//!
//! The median over `--reps` repetitions is reported; every backend is
//! cross-checked against the naive dense reference (the
//! `max_abs_diff_vs_dense` column — the conformance oracle tolerance is
//! 1e-8) and against its own naive path. `--min-speedup X` turns the
//! run into a CI tripwire: it fails unless the block-sparse plan beats
//! the *naive dense* baseline by at least `X×` on the largest measured
//! workload.
//!
//! Usage: `cargo run --release -p picbench-bench --bin sweep_bench
//! [-- --reps N --threads N --out PATH --backend LIST --mesh 8x8|16x16|both
//!  --min-speedup X]`
//!
//! [`sweep`]: picbench_sim::sweep

use picbench_math::simd::{active_level, scalar_kernels, SimdLevel};
use picbench_math::{decomp, CMatrix};
use picbench_problems::meshes::mesh_netlist;
use picbench_sim::{
    sweep_naive, sweep_parallel, sweep_serial, Backend, Circuit, FrequencyResponse, ModelRegistry,
    SweepPlan, WavelengthGrid,
};
use std::fmt::Write as _;
use std::time::Instant;

/// `(mesh size, grid points)` per workload. 8×8 keeps the historical
/// 64-point configuration; 16×16 uses a shorter grid (per-point cost is
/// what is compared, and the dense baseline is ~30× dearer per point).
const WORKLOADS: [(usize, usize); 2] = [(8, 64), (16, 16)];

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct BackendResult {
    backend: Backend,
    naive_ms: f64,
    plan_ms: f64,
    /// The same plan loop on a plan built with the scalar kernel
    /// table — block-sparse only, `None` when the default tier already
    /// is scalar (the row would duplicate `plan_ms`).
    scalar_plan_ms: Option<f64>,
    max_abs_diff_vs_naive: f64,
    max_abs_diff_vs_dense: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut threads = 4usize;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut backends: Vec<Backend> = Backend::ALL.to_vec();
    let mut meshes: Vec<(usize, usize)> = WORKLOADS.to_vec();
    let mut min_speedup: Option<f64> = None;
    let usage = "usage: sweep_bench [--reps N --threads N --out PATH \
                 --backend all|dense,port-elimination,block-sparse \
                 --mesh 8x8|16x16|both --min-speedup X]";
    let mut i = 0;
    while i < args.len() {
        let fail = |msg: &str| -> ! {
            eprintln!("{msg}; {usage}");
            std::process::exit(2);
        };
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--reps needs a positive integer"));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--threads needs a positive integer"));
            }
            "--out" => {
                i += 1;
                out_path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fail("--out needs a path"));
            }
            "--backend" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| fail("--backend needs a list"));
                if list == "all" {
                    backends = Backend::ALL.to_vec();
                } else {
                    backends = list
                        .split(',')
                        .map(|t| t.trim().parse::<Backend>().unwrap_or_else(|e| fail(&e)))
                        .collect();
                }
            }
            "--mesh" => {
                i += 1;
                meshes = match args.get(i).map(String::as_str) {
                    Some("8x8") => vec![WORKLOADS[0]],
                    Some("16x16") => vec![WORKLOADS[1]],
                    Some("both") => WORKLOADS.to_vec(),
                    _ => fail("--mesh needs 8x8|16x16|both"),
                };
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&x: &f64| x > 0.0)
                        .unwrap_or_else(|| fail("--min-speedup needs a positive number")),
                );
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    let registry = ModelRegistry::with_builtins();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut workload_json = String::new();
    let mut tripwire_speedup: Option<f64> = None;

    for (w_index, &(mesh_size, grid_points)) in meshes.iter().enumerate() {
        let target = decomp::dft_matrix(mesh_size);
        let mesh = decomp::clements_decompose(&target).expect("DFT is unitary");
        let netlist = mesh_netlist(&mesh);
        let circuit =
            Circuit::elaborate(&netlist, &registry, None).expect("golden mesh elaborates");
        let grid = WavelengthGrid::new(1.51, 1.59, grid_points);
        let wavelengths = grid.wavelengths();
        let n_ext = circuit.externals.len();

        let memoized = SweepPlan::new(&circuit, Backend::Dense)
            .expect("plan builds")
            .memoized_instance_count();
        println!(
            "workload: clements-{mesh_size}x{mesh_size} mesh, {} instances ({memoized} memoized), \
             {} global ports, {n_ext} external ports, {grid_points} grid points, {reps} reps",
            circuit.instance_count(),
            circuit.total_ports,
        );

        // The physics reference every backend is compared against.
        let dense_reference: FrequencyResponse =
            sweep_naive(&circuit, &grid, Backend::Dense).expect("naive dense sweep");

        let mut results: Vec<BackendResult> = Vec::new();
        for &backend in &backends {
            let mut naive_ms = Vec::with_capacity(reps);
            let mut plan_ms = Vec::with_capacity(reps);
            // Per-ISA comparison: only the block-sparse solve dispatches
            // through the SIMD kernel table, and the scalar row is only
            // interesting when a vector tier is actually active.
            let isa_row = backend == Backend::BlockSparse && active_level() != SimdLevel::Scalar;
            let mut scalar_ms = Vec::with_capacity(if isa_row { reps } else { 0 });
            let mut diff_vs_own_naive = 0.0f64;
            let mut diff_vs_dense = 0.0f64;
            for _ in 0..reps {
                let t = Instant::now();
                let naive = sweep_naive(&circuit, &grid, backend).expect("naive sweep");
                naive_ms.push(t.elapsed().as_secs_f64() * 1e3);

                // Drive the per-point solve directly (plan construction
                // included, as in the naive path): see the module docs
                // for why the stripe batching and the constant fold are
                // deliberately bypassed. The cross-checks run after the
                // clock stops.
                let mut outs: Vec<CMatrix> = (0..wavelengths.len())
                    .map(|_| CMatrix::zeros(n_ext, n_ext))
                    .collect();
                let t = Instant::now();
                let plan = SweepPlan::new(&circuit, backend).expect("plan builds");
                let mut ws = plan.workspace();
                for (k, &wl) in wavelengths.iter().enumerate() {
                    plan.evaluate_into(&mut ws, wl, &mut outs[k])
                        .expect("planned point solve");
                }
                plan_ms.push(t.elapsed().as_secs_f64() * 1e3);

                if isa_row {
                    let mut scalar_outs: Vec<CMatrix> = (0..wavelengths.len())
                        .map(|_| CMatrix::zeros(n_ext, n_ext))
                        .collect();
                    let t = Instant::now();
                    let plan = SweepPlan::new(&circuit, backend)
                        .expect("plan builds")
                        .with_kernels(scalar_kernels());
                    let mut ws = plan.workspace();
                    for (k, &wl) in wavelengths.iter().enumerate() {
                        plan.evaluate_into(&mut ws, wl, &mut scalar_outs[k])
                            .expect("scalar-table point solve");
                    }
                    scalar_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    // The cross-tier contract (FMA contraction only):
                    // the `simd` conformance axis tolerance.
                    let mut tier_diff = 0.0f64;
                    for (out, scalar) in outs.iter().zip(&scalar_outs) {
                        tier_diff = tier_diff.max(out.max_abs_diff(scalar));
                    }
                    assert!(
                        tier_diff < 1e-9,
                        "{backend}: {} tier disagrees with the scalar table by {tier_diff:.3e}",
                        active_level().token()
                    );
                }

                for (k, out) in outs.iter().enumerate() {
                    let own = naive.sample(k).expect("sample exists").matrix();
                    diff_vs_own_naive = diff_vs_own_naive.max(out.max_abs_diff(own));
                    let dense = dense_reference.sample(k).expect("sample exists").matrix();
                    diff_vs_dense = diff_vs_dense.max(out.max_abs_diff(dense));
                }
                assert!(
                    diff_vs_own_naive < 1e-9,
                    "{backend}: plan disagrees with its naive path by {diff_vs_own_naive:.3e}"
                );
                assert!(
                    diff_vs_dense < 1e-8,
                    "{backend}: plan disagrees with the dense reference by {diff_vs_dense:.3e}"
                );
            }
            let naive = median_ms(naive_ms);
            let plan = median_ms(plan_ms);
            println!(
                "{backend}: naive {naive:.2} ms -> plan {plan:.2} ms ({:.2}x, \
                 max |dS| vs dense {diff_vs_dense:.2e})",
                naive / plan
            );
            let scalar_plan = (!scalar_ms.is_empty()).then(|| median_ms(scalar_ms));
            if let Some(s) = scalar_plan {
                println!(
                    "{backend} ISA dispatch: scalar {s:.2} ms -> {} {plan:.2} ms ({:.2}x)",
                    active_level().token(),
                    s / plan
                );
            }
            results.push(BackendResult {
                backend,
                naive_ms: naive,
                plan_ms: plan,
                scalar_plan_ms: scalar_plan,
                max_abs_diff_vs_naive: diff_vs_own_naive,
                max_abs_diff_vs_dense: diff_vs_dense,
            });
        }

        // Determinism: the parallel executor must reproduce the serial
        // sweep bit for bit on every measured backend — the run aborts on
        // any deviation, so a written report always records `true`.
        for &backend in &backends {
            let serial = sweep_serial(&circuit, &grid, backend).expect("serial sweep");
            let parallel =
                sweep_parallel(&circuit, &grid, backend, threads).expect("parallel sweep");
            assert_eq!(serial, parallel, "{backend}: parallel deviates from serial");
        }
        println!("parallel ({threads} workers) element-wise identical to serial on all backends");

        let dense_plan = results
            .iter()
            .find(|r| r.backend == Backend::Dense)
            .map(|r| r.plan_ms);
        let pe_plan = results
            .iter()
            .find(|r| r.backend == Backend::PortElimination)
            .map(|r| r.plan_ms);
        let bs = results.iter().find(|r| r.backend == Backend::BlockSparse);
        if let Some(bs) = bs {
            if let Some(d) = dense_plan {
                println!("block-sparse vs dense (plan): {:.2}x", d / bs.plan_ms);
            }
            // Tripwire numerator: the naive dense baseline of the
            // largest measured workload.
            let naive_dense = results
                .iter()
                .find(|r| r.backend == Backend::Dense)
                .map(|r| r.naive_ms);
            if let Some(nd) = naive_dense {
                tripwire_speedup = Some(nd / bs.plan_ms);
            }
        }

        let mut results_json = String::new();
        for (k, r) in results.iter().enumerate() {
            if k > 0 {
                results_json.push_str(",\n");
            }
            // Per-ISA rows: the plan time under each measured dispatch
            // tier, plus the vector tier's speedup over the scalar table.
            let isa_json = match r.scalar_plan_ms {
                Some(s) => format!(
                    ",\n          \"plan_by_isa\": {{\n            \"scalar\": {:.3},\n            \
                     \"{}\": {:.3}\n          }},\n          \"simd_speedup\": {:.2}",
                    s,
                    active_level().token(),
                    r.plan_ms,
                    s / r.plan_ms
                ),
                None => String::new(),
            };
            let _ = write!(
                results_json,
                "        {{\n          \"backend\": \"{}\",\n          \"naive_ms\": {:.3},\n          \
                 \"plan_ms\": {:.3},\n          \"speedup_vs_naive\": {:.2},\n          \
                 \"max_abs_diff_vs_naive\": {:.3e},\n          \
                 \"max_abs_diff_vs_dense\": {:.3e}{isa_json}\n        }}",
                r.backend,
                r.naive_ms,
                r.plan_ms,
                r.naive_ms / r.plan_ms,
                r.max_abs_diff_vs_naive,
                r.max_abs_diff_vs_dense
            );
        }
        if w_index > 0 {
            workload_json.push_str(",\n");
        }
        let derived = match (bs, dense_plan, pe_plan) {
            (Some(bs), Some(d), Some(p)) => format!(
                ",\n      \"block_sparse_speedup_vs_dense\": {:.2},\n      \
                 \"block_sparse_speedup_vs_port_elimination\": {:.2}",
                d / bs.plan_ms,
                p / bs.plan_ms
            ),
            _ => String::new(),
        };
        let _ = write!(
            workload_json,
            "    {{\n      \"mesh\": \"clements-{mesh_size}x{mesh_size}\",\n      \
             \"instances\": {},\n      \"memoized_instances\": {memoized},\n      \
             \"global_ports\": {},\n      \"external_ports\": {n_ext},\n      \
             \"grid_points\": {grid_points},\n      \"results\": [\n{results_json}\n      ],\n      \
             \"parallel_identical_to_serial\": true{derived}\n    }}",
            circuit.instance_count(),
            circuit.total_ports,
        );
    }

    let level = active_level().token();
    let json = format!(
        "{{\n  \"benchmark\": \"wavelength-sweep plan/execute pipeline\",\n  \
         \"metric\": \"median wall-clock per full sweep, milliseconds (per-point solve; \
         the production sweep() folds these fully dispersionless meshes to a single point)\",\n  \
         \"repetitions\": {reps},\n  \"host_cpus\": {cpus},\n  \"threads_used\": {threads},\n  \
         \"simd_level\": \"{level}\",\n  \
         \"workloads\": [\n{workload_json}\n  ],\n  \
         \"generated_by\": \"cargo run --release -p picbench-bench --bin sweep_bench\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("wrote {out_path}");

    if let Some(min) = min_speedup {
        match tripwire_speedup {
            Some(got) if got >= min => {
                println!(
                    "min-speedup tripwire: block-sparse plan is {got:.2}x naive dense (>= {min})"
                );
            }
            Some(got) => {
                eprintln!(
                    "min-speedup tripwire FAILED: block-sparse plan is only {got:.2}x \
                     the naive dense baseline (required {min})"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("min-speedup tripwire needs both dense and block-sparse in --backend");
                std::process::exit(2);
            }
        }
    }
}
