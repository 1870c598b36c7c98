//! End-to-end checks of the `vpd` flag reader: every malformed flag
//! line exits non-zero with an error that names the offending flag, and
//! never panics or runs with a silently repaired value.

use std::process::Command;

#[test]
fn bad_flags_exit_nonzero_and_name_the_flag() {
    // (arguments, the flag the error must name)
    let cases: &[(&[&str], &str)] = &[
        // Served subcommands: unknown, dangling, fractional and negative.
        (&["analyze", "--arch", "a1", "--pwoer", "800"], "--pwoer"),
        (
            &["mc", "--arch", "a1", "--samples", "4", "--seed"],
            "--seed",
        ),
        (&["sharing", "--modules", "12.9"], "--modules"),
        (&["mc", "--arch", "a1", "--seed", "-5"], "--seed"),
        (&["mc", "--arch", "a1", "--arch", "a2"], "--arch"),
        (
            &["impedance", "--arch", "a1", "--points", "3.7"],
            "--points",
        ),
        // Served range checks report the flag of the rejected param.
        (&["mc", "--arch", "a1", "--samples", "0"], "--samples"),
        (&["analyze", "--arch", "a1", "--power", "-5"], "--power"),
        (&["faults", "--arch", "a1", "--random-k", "0"], "--random-k"),
        (
            &["faults", "--arch", "a1", "--random-k", "1001"],
            "--random-k",
        ),
        (
            &["faults", "--arch", "a2", "--dynamic", "--count", "0"],
            "--count",
        ),
        (
            &[
                "faults",
                "--arch",
                "a2",
                "--random-k",
                "2",
                "--count",
                "500001",
            ],
            "--random-k",
        ),
        // CLI-only subcommands share the same reader.
        (&["matrix", "--arch", "a1"], "--arch"),
        (&["recommend", "--top", "3"], "--top"),
        (&["thermal", "--arch", "a2", "--tehc", "si"], "--tehc"),
        (&["thermal", "--arch"], "--arch"),
        (
            &["droop", "--arch", "a2", "--sweep", "--amps", "2.5"],
            "--amps",
        ),
        (&["droop", "--arch", "all", "--sweep", "--slews"], "--slews"),
        (
            &["droop", "--arch", "a2", "--sweep", "--threads", "-1"],
            "--threads",
        ),
        (
            &["impedance", "--arch", "all", "--points", "3.7"],
            "--points",
        ),
        (&["impedance", "--arch", "all", "--fmin"], "--fmin"),
        (
            &["impedance", "--arch", "all", "--pionts", "24"],
            "--pionts",
        ),
        (&["serve", "--workers", "2.5"], "--workers"),
        (&["serve", "--queue-depth", "-1"], "--queue-depth"),
        (&["serve", "--stdoi"], "--stdoi"),
        (&["call", "--request"], "--request"),
        (&["call", "--shutdown", "--adr", "127.0.0.1:1"], "--adr"),
        (&["scenario", "check", "--name"], "--name"),
        (
            &["scenario", "run", "--name", "a2", "--fiel", "x.vpd"],
            "--fiel",
        ),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_vpd"))
            .args(*args)
            .output()
            .expect("vpd binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "vpd {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "vpd {args:?} printed a result");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(flag),
            "vpd {args:?}: error does not name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "vpd {args:?}: {stderr}");
    }
}
