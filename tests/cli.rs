//! The `varitune` command line on inputs the flow rejects: each must exit
//! with code 1 and an `error:` line, not a panic (exit code 101) and not a
//! result computed from a meaningless input.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory for one test's files, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("varitune_cli_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }

    /// Runs `varitune args…` inside the directory.
    fn varitune(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_varitune"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("spawn varitune")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Exit code 1 with the error on stderr.
fn assert_typed_failure(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{what}: {}\n{stderr}",
        out.status
    );
    assert!(stderr.starts_with("error: "), "{what}: {stderr}");
}

#[test]
fn zero_mc_libraries_exit_1_with_a_typed_error() {
    let dir = Scratch::new("stat_lib");
    let out = dir.varitune(&[
        "stat-lib",
        "--n",
        "0",
        "--out-mean",
        "m.lib",
        "--out-sigma",
        "s.lib",
    ]);
    assert_typed_failure(&out, "stat-lib --n 0");
    assert!(!dir.0.join("m.lib").exists(), "wrote a mean library");
}

#[test]
fn a_nan_clock_period_exits_1_instead_of_signing_off() {
    let dir = Scratch::new("synth_nan");
    let out = dir.varitune(&["gen-lib", "--out", "f.lib"]);
    assert!(out.status.success(), "gen-lib: {}", out.status);
    let out = dir.varitune(&[
        "synth", "--lib", "f.lib", "--design", "small", "--period", "nan",
    ]);
    assert_typed_failure(&out, "synth --period nan");
}

#[test]
fn tune_rejects_a_meaningless_value_and_keeps_inf() {
    let dir = Scratch::new("tune_value");
    let out = dir.varitune(&[
        "stat-lib",
        "--small",
        "--n",
        "2",
        "--out-mean",
        "m.lib",
        "--out-sigma",
        "s.lib",
    ]);
    assert!(out.status.success(), "stat-lib: {}", out.status);
    let tune = |method: &str, value: &str| {
        dir.varitune(&[
            "tune",
            "--mean",
            "m.lib",
            "--sigma",
            "s.lib",
            "--method",
            method,
            "--value",
            value,
            "--out",
            "w.windows",
        ])
    };
    for method in ["sigma-ceiling", "load-slope", "slew-slope"] {
        for value in ["nan", "-1"] {
            let out = tune(method, value);
            let what = format!("tune --method {method} --value {value}");
            assert_typed_failure(&out, &what);
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("--value"),
                "{what}: the error names the option"
            );
            assert!(!dir.0.join("w.windows").exists(), "{what}: wrote windows");
        }
        for value in ["0.02", "inf"] {
            let out = tune(method, value);
            assert!(
                out.status.success(),
                "tune --method {method} --value {value}"
            );
            assert!(
                dir.0.join("w.windows").exists(),
                "{method} {value}: no windows"
            );
            std::fs::remove_file(dir.0.join("w.windows")).expect("remove the windows file");
        }
    }
    assert_typed_failure(&tune("sigma-ceiling", "0"), "tune sigma-ceiling --value 0");
}
