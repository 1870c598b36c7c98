//! Sparse direct-solver benchmark: the cached-factorization Cholesky
//! floor against warm-CG on the paper's 48-VR under-die grid, plus the
//! k = 8 multi-RHS block solve and the k = 8 setpoint sweep. Emits
//! `BENCH_cholesky.json`.
//!
//! Three workloads:
//!
//! * **Setpoint sweep (RHS-only)** — every solve moves only the right-
//!   hand side. The direct path skips refactorization entirely (bitwise
//!   value check) and answers with two triangular substitutions.
//! * **Sheet-resistance restamp (matrix moves)** — the Monte-Carlo
//!   regime: every solve re-stamps the conductance matrix, so the
//!   direct path pays a numeric refactor against CG's warm iterations.
//! * **k = 8 block solve and sweep** — one factorization plus one
//!   interleaved block substitution against eight sequential solves at
//!   the numeric level (`SparseCholesky::solve_block_into`), and an
//!   eight-setpoint `SharingSolver::solve_setpoints` sweep (one solve)
//!   against one direct solve per setpoint at the plan level.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin cholesky             # full, writes JSON
//! cargo run --release -p vpd-bench --bin cholesky -- --smoke  # CI gate
//! ```
//!
//! Both modes verify the correctness contracts (block == sequential
//! bitwise, sweep == per-setpoint solves within 1e-9, direct == warm-CG
//! within tolerance), and the audit holds every `*speedup` of the record
//! at 1.0 or more.

use vpd_bench::perf::{section, Bench, Bound, Config, Size};
use vpd_core::{Calibration, DcPlanMode, SharingSolver, SystemSpec, VrPlacement};
use vpd_numeric::{CooMatrix, CsrMatrix, SparseCholesky};
use vpd_units::Volts;

const MODULES: usize = 48;
const BLOCK_K: usize = 8;
/// Solves per timed run of the RHS-only workload.
const SOLVES: Size<usize> = Size(400, 16);
/// Solves per timed run of the perturbed workload.
const PERTURBED_SOLVES: Size<usize> = Size(200, 16);
/// Block repetitions per timed run at the numeric level.
const NUMERIC_REPS: Size<usize> = Size(2000, 20);
/// Sweep repetitions per timed run at the plan level.
const PLAN_REPS: Size<usize> = Size(50, 2);

fn build_solver(spec: &SystemSpec, calib: &Calibration, mode: DcPlanMode) -> SharingSolver {
    let mut solver = SharingSolver::builder(spec, calib)
        .placement(VrPlacement::BelowDie)
        .modules(MODULES)
        .build()
        .unwrap();
    solver.set_solve_mode(mode).unwrap();
    // Prime: compile the plan (and factor, in direct mode) outside the
    // timed region, and anchor so CG warm-starts the way the engines do.
    solver.solve().unwrap();
    solver.anchor_last();
    solver
}

/// `n` solves that move only the right-hand side: all modules track a
/// small cyclic setpoint schedule.
fn setpoint_workload(solver: &mut SharingSolver, n: usize) {
    for i in 0..n {
        let sp = Volts::new(1.0 + 1e-4 * (i % 16) as f64);
        for k in 0..solver.vr_count() {
            solver.set_vr_setpoint(k, sp).unwrap();
        }
        solver.solve().unwrap();
    }
}

/// `n` solves that move the matrix: the grid sheet resistance wobbles
/// ±2% on a deterministic schedule and every solve restamps.
fn perturbed_workload(
    solver: &mut SharingSolver,
    spec: &SystemSpec,
    calib: &Calibration,
    n: usize,
) {
    let droop = calib.vr_droop_below_die;
    for i in 0..n {
        let wobble = 1.0 + 0.02 * ((i % 9) as f64 / 4.0 - 1.0);
        let perturbed = Calibration {
            grid_sheet_resistance: calib.grid_sheet_resistance * wobble,
            ..*calib
        };
        solver.restamp(spec, &perturbed, droop).unwrap();
        solver.solve().unwrap();
    }
}

/// The 48-VR grid's numeric twin: the same 2-D mesh Laplacian the
/// sharing solver reduces to, with one grounded droop conductance per
/// module site.
fn grid_matrix(side: usize) -> CsrMatrix {
    let n = side * side;
    let id = |x: usize, y: usize| y * side + x;
    let g = 50.0;
    let mut coo = CooMatrix::new(n, n);
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                let (a, b) = (id(x, y), id(x + 1, y));
                coo.push(a, a, g);
                coo.push(b, b, g);
                coo.push(a, b, -g);
                coo.push(b, a, -g);
            }
            if y + 1 < side {
                let (a, b) = (id(x, y), id(x, y + 1));
                coo.push(a, a, g);
                coo.push(b, b, g);
                coo.push(a, b, -g);
                coo.push(b, a, -g);
            }
        }
    }
    for k in 0..MODULES {
        let i = (k * 13) % n;
        coo.push(i, i, 4.0);
    }
    coo.to_csr()
}

/// Direct-mode results must track warm-CG within solver tolerance.
fn check_direct_matches_cg(spec: &SystemSpec, calib: &Calibration) {
    let mut cg = build_solver(spec, calib, DcPlanMode::WarmCg);
    let mut direct = build_solver(spec, calib, DcPlanMode::DirectCholesky);
    let a = cg.solve().unwrap();
    let b = direct.solve().unwrap();
    assert!(
        (a.worst_drop().value() - b.worst_drop().value()).abs() < 1e-8,
        "direct {} vs CG {}",
        b.worst_drop(),
        a.worst_drop()
    );
}

fn main() {
    let bench = Bench::from_args("Sparse-Cholesky", "BENCH_cholesky.json");
    let (spec, calib, _) = vpd_bench::paper_env();
    check_direct_matches_cg(&spec, &calib);

    // --- per-solve: setpoint sweep (RHS-only) ---------------------------
    let solves = bench.size(SOLVES);
    let mut solvers = [DcPlanMode::WarmCg, DcPlanMode::DirectCholesky]
        .map(|mode| build_solver(&spec, &calib, mode));
    let rhs_only = bench.measure(
        &format!("rhs-only ({solves} solves)"),
        &[
            Config::new("warm_cg_solves_per_sec", solves),
            Config::new("direct_solves_per_sec", solves).ratio("per_solve_speedup"),
        ],
        |config| setpoint_workload(&mut solvers[config], solves),
    );

    // --- per-solve: matrix-perturbed restamps ---------------------------
    // Not gated >= 1.0: when every solve moves the matrix, the direct
    // path pays a full refactor against a handful of warm iterations —
    // the measured reason WarmCg stays the default plan mode.
    let psolves = bench.size(PERTURBED_SOLVES);
    let mut solvers = [DcPlanMode::WarmCg, DcPlanMode::DirectCholesky]
        .map(|mode| build_solver(&spec, &calib, mode));
    let perturbed = bench.measure(
        &format!("perturbed ({psolves} solves)"),
        &[
            Config::new("warm_cg_solves_per_sec", psolves),
            Config::new("direct_solves_per_sec", psolves).ratio("direct_vs_cg_ratio"),
        ],
        |config| perturbed_workload(&mut solvers[config], &spec, &calib, psolves),
    );

    // --- k = 8 block vs sequential, numeric level -----------------------
    // Factor once, then solve `BLOCK_K` right-hand sides as one block and
    // as `BLOCK_K` sequential `solve_into` calls.
    let a = grid_matrix(25);
    let mut chol = SparseCholesky::factor(&a).unwrap();
    let n = chol.dim();
    let sym_nnz = chol.symbolic().factor_nnz();
    let fill = chol.symbolic().fill_ratio();
    println!("grid twin: {n} unknowns, factor nnz {sym_nnz} (fill {fill:.2}x)");
    let reps = bench.size(NUMERIC_REPS);
    let block0: Vec<f64> = (0..n * BLOCK_K)
        .map(|i| ((i % 97) as f64 - 48.0) / 17.0)
        .collect();
    let (mut seq, mut blk) = (block0.clone(), block0.clone());
    let numeric = bench.measure(
        &format!("numeric k={BLOCK_K} block vs sequential"),
        &[
            Config::new("sequential_rhs_per_sec", reps * BLOCK_K),
            Config::new("block_rhs_per_sec", reps * BLOCK_K).ratio("speedup"),
        ],
        |config| {
            for _ in 0..reps {
                if config == 0 {
                    seq.copy_from_slice(&block0);
                    for c in 0..BLOCK_K {
                        chol.solve_into(&mut seq[c * n..(c + 1) * n]).unwrap();
                    }
                } else {
                    blk.copy_from_slice(&block0);
                    chol.solve_block_into(&mut blk, BLOCK_K).unwrap();
                }
            }
        },
    );
    let same = seq
        .iter()
        .zip(&blk)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "block solve drifted from sequential solves");

    // --- k = 8 sweep vs sequential, plan level ---------------------------
    // A `BLOCK_K`-setpoint sweep as one `solve_setpoints` call (one solve
    // at the nominal setpoint, the sweep's first point) vs one direct
    // solve per setpoint.
    let preps = bench.size(PLAN_REPS);
    let setpoints: Vec<Volts> = (0..BLOCK_K)
        .map(|i| Volts::new(1.0 + 1e-3 * i as f64))
        .collect();
    let mut solvers = [(); 2].map(|()| build_solver(&spec, &calib, DcPlanMode::DirectCholesky));
    let (mut per_setpoint, mut swept) = (Vec::new(), Vec::new());
    let plan = bench.measure(
        &format!("plan k={BLOCK_K} sweep vs per-setpoint solves"),
        &[
            Config::new("sequential_rhs_per_sec", preps * BLOCK_K),
            Config::new("sweep_rhs_per_sec", preps * BLOCK_K).ratio("speedup"),
        ],
        |config| {
            let solver = &mut solvers[config];
            for _ in 0..preps {
                if config == 0 {
                    per_setpoint.clear();
                    for &sp in &setpoints {
                        for k in 0..solver.vr_count() {
                            solver.set_vr_setpoint(k, sp).unwrap();
                        }
                        per_setpoint.push(solver.solve().unwrap());
                    }
                } else {
                    swept = solver.solve_setpoints(&setpoints).unwrap();
                }
            }
        },
    );
    // The nominal point must equal its solve bitwise and every point
    // must agree within the golden corpus's 1e-9 bound (A, W and V).
    assert_eq!(
        swept[0], per_setpoint[0],
        "nominal point drifted from its solve"
    );
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
    for (i, (a, b)) in swept.iter().zip(&per_setpoint).enumerate() {
        let agree = a
            .per_vr()
            .iter()
            .zip(b.per_vr())
            .all(|(x, y)| close(x.value(), y.value()))
            && close(a.grid_loss().value(), b.grid_loss().value())
            && close(a.droop_loss().value(), b.droop_loss().value())
            && close(a.worst_drop().value(), b.worst_drop().value());
        assert!(agree, "sweep point {i} drifted from its per-setpoint solve");
    }

    let grid = [
        ("modules", MODULES),
        ("unknowns", n),
        ("factor_nnz", sym_nnz),
    ];
    bench.finish(
        1,
        vec![
            section("grid", &grid, &[]),
            rhs_only.section("rhs_only", &[("solves", solves)]),
            perturbed.section("perturbed", &[("solves", psolves)]),
            numeric.section("numeric_block", &[("k", BLOCK_K), ("reps", reps)]),
            plan.section("plan_sweep", &[("k", BLOCK_K), ("reps", preps)]),
        ],
        &[
            Bound::AtLeast("rhs_only.per_solve_speedup", 1.0),
            Bound::AtLeast("numeric_block.speedup", 1.0),
            Bound::AtLeast("plan_sweep.speedup", 1.0),
        ],
    );
}
