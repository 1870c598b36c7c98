//! The machine and build a run measured, so a noisy run set can be
//! told apart from a slow commit: CPU count and model, toolchain, build
//! profile, source revision, the share of CPU time the host stole or
//! spent waiting on I/O while the run was going, and how fast a fixed
//! kernel of the harness's own ran at the start and at the end of it.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use vpd_report::Json;

/// Aggregate `/proc/stat` CPU times: (iowait, steal, total) in ticks.
fn cpu_ticks() -> Option<(u64, u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    if v.len() < 8 {
        return None;
    }
    Some((v[4], v[7], v[..8].iter().sum()))
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources and manifests, in path order: a
/// revision stand-in for checkouts that are not git repositories.
fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "vpd")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    walk(Path::new("scenarios"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", vpd_scenario::fnv1a64(&bytes))
}

/// Milliseconds of two fixed kernels that do not touch the program,
/// each the median of five repetitions: 1000 five-point stencil sweeps
/// over a 128 x 128 grid that stays in cache (`stencil_ms`), and four
/// reads of a 32 MiB array (`stream_ms`). A run set whose workload
/// times drift while these drift with them was taken on a host that
/// changed speed; the `/proc/stat` steal share does not show that
/// when a neighbour contends for caches or memory bandwidth.
fn host_speed() -> (f64, f64) {
    const N: usize = 128;
    let time = |f: &mut dyn FnMut() -> f64| {
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[2]
    };
    let stencil = time(&mut || {
        // Jacobi sweeps of Laplace's equation with the boundary held
        // at 1: the values rise towards 1, so no sweep meets a
        // subnormal number, and every repetition does the same work.
        let mut a = vec![0.0f64; N * N];
        for i in 0..N {
            for k in [i, i * N, i * N + N - 1, (N - 1) * N + i] {
                a[k] = 1.0;
            }
        }
        let mut b = a.clone();
        for _ in 0..1000 {
            for i in 1..N - 1 {
                for j in 1..N - 1 {
                    let k = i * N + j;
                    b[k] = 0.25 * (a[k - 1] + a[k + 1] + a[k - N] + a[k + N]);
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        a[N * N / 2 + N / 2]
    });
    let big: Vec<f64> = (0..(32 << 20) / 8).map(|i| i as f64).collect();
    let stream = time(&mut || (0..4).map(|_| black_box(&big).iter().sum::<f64>()).sum());
    (stencil, stream)
}

pub struct Probe {
    ticks: Option<(u64, u64, u64)>,
    speed: (f64, f64),
}

impl Probe {
    pub fn start() -> Self {
        Self {
            speed: host_speed(),
            ticks: cpu_ticks(),
        }
    }

    pub fn finish(self) -> Json {
        let end = host_speed();
        let share = |pick: fn((u64, u64, u64)) -> u64| match (self.ticks, cpu_ticks()) {
            (Some(a), Some(b)) if b.2 > a.2 => {
                Json::from((pick(b) - pick(a)) as f64 / (b.2 - a.2) as f64)
            }
            _ => Json::Null,
        };
        let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
        Json::obj([
            (
                "nproc",
                Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
            ),
            ("cpu_model", Json::from(cpu_model())),
            ("rustc", Json::from(var("VPDBENCH_RUSTC"))),
            (
                "build_profile",
                Json::from(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("git_revision", Json::from(var("VPDBENCH_GIT_REVISION"))),
            ("source_hash", Json::from(source_hash())),
            ("steal_share", share(|t| t.1)),
            ("iowait_share", share(|t| t.0)),
            (
                "host_speed",
                Json::obj([
                    (
                        "stencil_ms",
                        Json::Array(vec![Json::from(self.speed.0), Json::from(end.0)]),
                    ),
                    (
                        "stream_ms",
                        Json::Array(vec![Json::from(self.speed.1), Json::from(end.1)]),
                    ),
                ]),
            ),
        ])
    }
}
