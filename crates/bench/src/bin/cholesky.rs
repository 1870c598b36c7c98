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
//! Smoke mode re-verifies the correctness contracts on a reduced
//! workload (block == sequential bitwise, sweep == per-setpoint solves
//! within 1e-9, direct == warm-CG within tolerance) and asserts every
//! `*speedup*` field of the checked-in `BENCH_cholesky.json` is at
//! least 1.0.

use std::time::Instant;
use vpd_core::{Calibration, DcPlanMode, SharingSolver, SystemSpec, VrPlacement};
use vpd_numeric::{CooMatrix, CsrMatrix, SparseCholesky};
use vpd_report::Json;
use vpd_units::Volts;

const MODULES: usize = 48;
const BLOCK_K: usize = 8;

fn usage() -> ! {
    eprintln!("usage: cholesky [--smoke]");
    std::process::exit(2);
}

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
/// small cyclic setpoint schedule. Returns elapsed seconds.
fn setpoint_workload(solver: &mut SharingSolver, n: usize) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        let sp = Volts::new(1.0 + 1e-4 * (i % 16) as f64);
        for k in 0..solver.vr_count() {
            solver.set_vr_setpoint(k, sp).unwrap();
        }
        solver.solve().unwrap();
    }
    start.elapsed().as_secs_f64()
}

/// `n` solves that move the matrix: the grid sheet resistance wobbles
/// ±2% on a deterministic schedule and every solve restamps. Returns
/// elapsed seconds.
fn perturbed_workload(
    solver: &mut SharingSolver,
    spec: &SystemSpec,
    calib: &Calibration,
    n: usize,
) -> f64 {
    let droop = calib.vr_droop_below_die;
    let start = Instant::now();
    for i in 0..n {
        let wobble = 1.0 + 0.02 * ((i % 9) as f64 / 4.0 - 1.0);
        let perturbed = Calibration {
            grid_sheet_resistance: calib.grid_sheet_resistance * wobble,
            ..*calib
        };
        solver.restamp(spec, &perturbed, droop).unwrap();
        solver.solve().unwrap();
    }
    start.elapsed().as_secs_f64()
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

/// Numeric-level block contract + timing: factor once, then solve
/// `BLOCK_K` right-hand sides as one block and as `BLOCK_K` sequential
/// `solve_into` calls. Returns (sequential_secs, block_secs) over
/// `reps` repetitions and asserts the two answers are bitwise equal.
fn numeric_block(chol: &mut SparseCholesky, n: usize, reps: usize) -> (f64, f64) {
    let block0: Vec<f64> = (0..n * BLOCK_K)
        .map(|i| ((i % 97) as f64 - 48.0) / 17.0)
        .collect();

    let mut seq = block0.clone();
    let seq_start = Instant::now();
    for _ in 0..reps {
        seq.copy_from_slice(&block0);
        for c in 0..BLOCK_K {
            chol.solve_into(&mut seq[c * n..(c + 1) * n]).unwrap();
        }
    }
    let seq_secs = seq_start.elapsed().as_secs_f64();

    let mut blk = block0.clone();
    let blk_start = Instant::now();
    for _ in 0..reps {
        blk.copy_from_slice(&block0);
        chol.solve_block_into(&mut blk, BLOCK_K).unwrap();
    }
    let blk_secs = blk_start.elapsed().as_secs_f64();

    let same = seq
        .iter()
        .zip(&blk)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "block solve drifted from sequential solves");
    (seq_secs, blk_secs)
}

/// Plan-level sweep contract + timing: a `BLOCK_K`-setpoint sweep as
/// one `solve_setpoints` call (one solve at the nominal setpoint, the
/// sweep's first point) vs one direct solve per setpoint. Returns
/// (sequential_secs, sweep_secs). The nominal point must equal its
/// solve bitwise and every point must agree within the golden corpus's
/// 1e-9 bound (A, W and V alike).
fn plan_sweep(spec: &SystemSpec, calib: &Calibration, reps: usize) -> (f64, f64) {
    let sweep: Vec<Volts> = (0..BLOCK_K)
        .map(|i| Volts::new(1.0 + 1e-3 * i as f64))
        .collect();

    let mut seq_solver = build_solver(spec, calib, DcPlanMode::DirectCholesky);
    let mut seq_reports = Vec::new();
    let seq_start = Instant::now();
    for _ in 0..reps {
        seq_reports.clear();
        for &sp in &sweep {
            for k in 0..seq_solver.vr_count() {
                seq_solver.set_vr_setpoint(k, sp).unwrap();
            }
            seq_reports.push(seq_solver.solve().unwrap());
        }
    }
    let seq_secs = seq_start.elapsed().as_secs_f64();

    let mut sweep_solver = build_solver(spec, calib, DcPlanMode::DirectCholesky);
    let mut swept = Vec::new();
    let sweep_start = Instant::now();
    for _ in 0..reps {
        swept = sweep_solver.solve_setpoints(&sweep).unwrap();
    }
    let sweep_secs = sweep_start.elapsed().as_secs_f64();

    assert_eq!(
        swept[0], seq_reports[0],
        "nominal point drifted from its solve"
    );
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9;
    for (i, (a, b)) in swept.iter().zip(&seq_reports).enumerate() {
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
    (seq_secs, sweep_secs)
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

/// Walks the checked-in JSON and asserts every field whose key contains
/// `speedup` is at least 1.0.
fn audit_speedups(doc: &Json, path: &str, found: &mut usize) {
    if let Json::Object(pairs) = doc {
        for (key, value) in pairs {
            let here = format!("{path}/{key}");
            if key.contains("speedup") {
                let v = value.as_f64().unwrap_or(f64::NAN);
                assert!(v >= 1.0, "{here} = {v} regressed below 1.0");
                *found += 1;
                println!("  {here} = {v:.2} (>= 1.0)");
            }
            audit_speedups(value, &here, found);
        }
    }
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }

    let (spec, calib, _) = vpd_bench::paper_env();
    vpd_bench::banner(if smoke {
        "Sparse-Cholesky smoke"
    } else {
        "Sparse-Cholesky benchmark (BENCH_cholesky.json)"
    });

    // Correctness contracts run in both modes.
    check_direct_matches_cg(&spec, &calib);
    let a = grid_matrix(25);
    let mut chol = SparseCholesky::factor(&a).unwrap();
    let n = chol.dim();
    let sym_nnz = chol.symbolic().factor_nnz();
    let fill = chol.symbolic().fill_ratio();
    println!(
        "grid twin: {n} unknowns, factor nnz {sym_nnz} (fill {fill:.2}x), \
         {MODULES} module sites"
    );

    if smoke {
        let (seq_secs, blk_secs) = numeric_block(&mut chol, n, 20);
        let (pseq, psweep) = plan_sweep(&spec, &calib, 2);
        println!(
            "contracts OK: block == sequential bitwise \
             (numeric {seq_secs:.3}s vs {blk_secs:.3}s), sweep == per-setpoint solves \
             within 1e-9 ({pseq:.3}s vs {psweep:.3}s), direct == warm-CG within tolerance"
        );
        let doc = std::fs::read_to_string("BENCH_cholesky.json")
            .expect("BENCH_cholesky.json must be checked in");
        let doc = Json::parse(&doc).expect("BENCH_cholesky.json must parse");
        let mut found = 0;
        audit_speedups(&doc, "", &mut found);
        assert!(
            found >= 3,
            "expected at least 3 speedup fields, found {found}"
        );
        println!("\nsmoke OK ({found} speedup fields audited)");
        return;
    }

    // --- per-solve: setpoint sweep (RHS-only) ---------------------------
    let solves = 400;
    let mut cg = build_solver(&spec, &calib, DcPlanMode::WarmCg);
    let cg_secs = setpoint_workload(&mut cg, solves);
    let mut direct = build_solver(&spec, &calib, DcPlanMode::DirectCholesky);
    let direct_secs = setpoint_workload(&mut direct, solves);
    let per_solve_speedup = cg_secs / direct_secs;
    println!(
        "rhs-only ({solves} solves): warm-CG {:.0}/s, direct {:.0}/s, speedup {per_solve_speedup:.2}x",
        solves as f64 / cg_secs,
        solves as f64 / direct_secs,
    );

    // --- per-solve: matrix-perturbed restamps ---------------------------
    let psolves = 200;
    let mut cg = build_solver(&spec, &calib, DcPlanMode::WarmCg);
    let cg_psecs = perturbed_workload(&mut cg, &spec, &calib, psolves);
    let mut direct = build_solver(&spec, &calib, DcPlanMode::DirectCholesky);
    let direct_psecs = perturbed_workload(&mut direct, &spec, &calib, psolves);
    // Not gated >= 1.0: when every solve moves the matrix, the direct
    // path pays a full refactor against a handful of warm iterations —
    // the measured reason WarmCg stays the default plan mode.
    let perturbed_ratio = cg_psecs / direct_psecs;
    println!(
        "perturbed ({psolves} solves): warm-CG {:.0}/s, direct {:.0}/s, ratio {perturbed_ratio:.2}x",
        psolves as f64 / cg_psecs,
        psolves as f64 / direct_psecs,
    );

    // --- k = 8 block and sweep vs sequential ----------------------------
    let nreps = 2000;
    let (nseq, nblk) = numeric_block(&mut chol, n, nreps);
    let numeric_block_speedup = nseq / nblk;
    let preps = 50;
    let (pseq, psweep) = plan_sweep(&spec, &calib, preps);
    let plan_sweep_speedup = pseq / psweep;
    println!(
        "k={BLOCK_K}: numeric block {numeric_block_speedup:.2}x \
         ({:.0} vs {:.0} RHS/s), plan sweep {plan_sweep_speedup:.2}x \
         ({:.0} vs {:.0} setpoints/s)",
        (nreps * BLOCK_K) as f64 / nseq,
        (nreps * BLOCK_K) as f64 / nblk,
        (preps * BLOCK_K) as f64 / pseq,
        (preps * BLOCK_K) as f64 / psweep,
    );

    let json = format!(
        "{{\n  \"grid\": {{\n    \"architecture\": \"A2\",\n    \"modules\": {MODULES},\n    \"unknowns\": {n},\n    \"factor_nnz\": {sym_nnz},\n    \"fill_ratio\": {fill:.3}\n  }},\n  \"rhs_only\": {{\n    \"workload\": \"setpoint sweep, matrix values unchanged\",\n    \"solves\": {solves},\n    \"warm_cg_solves_per_sec\": {:.1},\n    \"direct_solves_per_sec\": {:.1},\n    \"per_solve_speedup\": {per_solve_speedup:.3}\n  }},\n  \"perturbed\": {{\n    \"workload\": \"sheet-resistance restamp, matrix moves every solve\",\n    \"solves\": {psolves},\n    \"warm_cg_solves_per_sec\": {:.1},\n    \"direct_solves_per_sec\": {:.1},\n    \"direct_vs_cg_ratio\": {perturbed_ratio:.3}\n  }},\n  \"block\": {{\n    \"k\": {BLOCK_K},\n    \"numeric_sequential_rhs_per_sec\": {:.1},\n    \"numeric_block_rhs_per_sec\": {:.1},\n    \"numeric_block_speedup\": {numeric_block_speedup:.3},\n    \"plan_sequential_rhs_per_sec\": {:.1},\n    \"plan_sweep_rhs_per_sec\": {:.1},\n    \"plan_sweep_speedup\": {plan_sweep_speedup:.3},\n    \"block_matches_sequential_bitwise\": true\n  }}\n}}\n",
        solves as f64 / cg_secs,
        solves as f64 / direct_secs,
        psolves as f64 / cg_psecs,
        psolves as f64 / direct_psecs,
        (nreps * BLOCK_K) as f64 / nseq,
        (nreps * BLOCK_K) as f64 / nblk,
        (preps * BLOCK_K) as f64 / pseq,
        (preps * BLOCK_K) as f64 / psweep,
    );
    std::fs::write("BENCH_cholesky.json", &json).unwrap();
    println!("\nwrote BENCH_cholesky.json");
}
