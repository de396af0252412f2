//! `varitune` — command-line front end to the library-tuning flow.
//!
//! ```text
//! varitune gen-lib   [--small] [--corner tt|ff|ss] --out LIB.lib
//! varitune stat-lib  [--small] [--n 50] [--seed 42] --out-mean M.lib --out-sigma S.lib
//! varitune tune      --mean M.lib --sigma S.lib --method METHOD --value V --out W.windows
//! varitune synth     --lib M.lib --period NS [--windows W.windows]
//!                    [--design small|paper] [--verilog OUT.v] [--sdf OUT.sdf]
//! ```
//!
//! Methods: `strength-load-slope`, `strength-slew-slope`, `load-slope`,
//! `slew-slope`, `sigma-ceiling`.
//!
//! Files use open formats: Liberty for libraries, the line-oriented
//! `.windows` sidecar for operating windows, structural Verilog for the
//! synthesized netlist and SDF for its delays.

use std::collections::BTreeMap;
use std::process::ExitCode;

use varitune::core::{tune, TuningMethod, TuningParams};
use varitune::libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
use varitune::liberty::{parse_library, write_library};
use varitune::netlist::{generate_mcu, McuConfig};
use varitune::synth::{synthesize, write_verilog, LibraryConstraints, SynthConfig};
use varitune::variation::ProcessCorner;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".to_string());
    let opts = parse_options(args)?;
    match command.as_str() {
        "gen-lib" => gen_lib(&opts),
        "stat-lib" => stat_lib(&opts),
        "tune" => tune_cmd(&opts),
        "synth" => synth_cmd(&opts),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `varitune help`").into()),
    }
}

fn print_help() {
    println!(
        "varitune — standard-cell library tuning for variability tolerant designs\n\
         \n\
         commands:\n\
           gen-lib   generate the synthetic 304-cell Liberty library\n\
           stat-lib  run Monte-Carlo characterization, emit mean/sigma libraries\n\
           tune      extract per-pin operating windows from a statistical library\n\
           synth     map + optimize the built-in microcontroller, report timing/area\n\
         \n\
         run `cargo run --release -p varitune-bench --bin experiments` to\n\
         regenerate the paper's tables and figures."
    );
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<BTreeMap<String, String>, CliError> {
    let mut opts = BTreeMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}` (options start with --)").into());
        };
        // Flags without values: --small.
        let value = if key == "small" {
            "true".to_string()
        } else {
            args.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
        };
        opts.insert(key.to_string(), value);
    }
    Ok(opts)
}

fn required<'a>(opts: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}").into())
}

fn generate_config(opts: &BTreeMap<String, String>) -> Result<GenerateConfig, CliError> {
    let mut cfg = if opts.contains_key("small") {
        GenerateConfig::small_for_tests()
    } else {
        GenerateConfig::full()
    };
    if let Some(corner) = opts.get("corner") {
        let c = match corner.as_str() {
            "tt" => ProcessCorner::Typical,
            "ff" => ProcessCorner::Fast,
            "ss" => ProcessCorner::Slow,
            other => return Err(format!("unknown corner `{other}` (tt|ff|ss)").into()),
        };
        cfg.name = c.library_name().to_string();
        cfg.corner_factor = c.delay_factor();
    }
    Ok(cfg)
}

fn gen_lib(opts: &BTreeMap<String, String>) -> Result<(), CliError> {
    let cfg = generate_config(opts)?;
    let out = required(opts, "out")?;
    let lib = generate_nominal(&cfg);
    std::fs::write(out, write_library(&lib)?)?;
    println!("wrote {} ({} cells)", out, lib.cells.len());
    Ok(())
}

fn stat_lib(opts: &BTreeMap<String, String>) -> Result<(), CliError> {
    let cfg = generate_config(opts)?;
    let n: usize = opts.get("n").map_or(Ok(50), |s| s.parse())?;
    let seed: u64 = opts.get("seed").map_or(Ok(42), |s| s.parse())?;
    let out_mean = required(opts, "out-mean")?;
    let out_sigma = required(opts, "out-sigma")?;
    let nominal = generate_nominal(&cfg);
    let mc = generate_mc_libraries(&nominal, &cfg, n, seed);
    let stat = StatLibrary::from_libraries(&mc)?;
    std::fs::write(out_mean, write_library(&stat.mean)?)?;
    std::fs::write(out_sigma, write_library(&stat.sigma)?)?;
    println!("wrote {out_mean} and {out_sigma} from {n} MC libraries (seed {seed})");
    Ok(())
}

fn parse_method(name: &str) -> Result<TuningMethod, CliError> {
    Ok(match name {
        "strength-load-slope" => TuningMethod::CellStrengthLoadSlope,
        "strength-slew-slope" => TuningMethod::CellStrengthSlewSlope,
        "load-slope" => TuningMethod::CellLoadSlope,
        "slew-slope" => TuningMethod::CellSlewSlope,
        "sigma-ceiling" => TuningMethod::SigmaCeiling,
        other => {
            return Err(format!(
                "unknown method `{other}` (strength-load-slope, strength-slew-slope, \
                 load-slope, slew-slope, sigma-ceiling)"
            )
            .into())
        }
    })
}

fn tune_cmd(opts: &BTreeMap<String, String>) -> Result<(), CliError> {
    let mean = parse_library(&std::fs::read_to_string(required(opts, "mean")?)?)?;
    let sigma = parse_library(&std::fs::read_to_string(required(opts, "sigma")?)?)?;
    let method = parse_method(required(opts, "method")?)?;
    let value: f64 = required(opts, "value")?.parse()?;
    // `inf` is no bound from this parameter; NaN, a negative value and a
    // zero sigma ceiling would silently tune nothing.
    let sigma_ceiling = method == TuningMethod::SigmaCeiling;
    if value.is_nan() || value < 0.0 || (sigma_ceiling && value == 0.0) {
        let allowed = if sigma_ceiling {
            "above 0"
        } else {
            "0 or more"
        };
        return Err(format!("--value must be {allowed} (inf for no bound), got {value}").into());
    }
    let out = required(opts, "out")?;
    let stat = StatLibrary::from_parts(mean, sigma, 0);
    let params = match method {
        TuningMethod::CellStrengthLoadSlope | TuningMethod::CellLoadSlope => {
            TuningParams::with_load_slope(value)
        }
        TuningMethod::CellStrengthSlewSlope | TuningMethod::CellSlewSlope => {
            TuningParams::with_slew_slope(value)
        }
        TuningMethod::SigmaCeiling => TuningParams::with_sigma_ceiling(value),
    };
    let tuned = tune(&stat, method, params);
    std::fs::write(out, tuned.constraints.to_text())?;
    println!(
        "wrote {out}: {} pins restricted, {} unrestricted ({} clusters)",
        tuned.restricted_pins,
        tuned.unrestricted_pins,
        tuned.cluster_thresholds.len()
    );
    Ok(())
}

fn synth_cmd(opts: &BTreeMap<String, String>) -> Result<(), CliError> {
    let lib = parse_library(&std::fs::read_to_string(required(opts, "lib")?)?)?;
    let period: f64 = required(opts, "period")?.parse()?;
    let constraints = match opts.get("windows") {
        Some(path) => LibraryConstraints::from_text(&std::fs::read_to_string(path)?)?,
        None => LibraryConstraints::unconstrained(),
    };
    let design = match opts.get("design").map(String::as_str) {
        Some("paper") | None => generate_mcu(&McuConfig::paper_scale()),
        Some("small") => generate_mcu(&McuConfig::small_for_tests()),
        Some(other) => return Err(format!("unknown design `{other}` (small|paper)").into()),
    };
    let result = synthesize(
        &design,
        &lib,
        &constraints,
        &SynthConfig::with_clock_period(period),
    )?;
    println!(
        "design {}: {} gates mapped, area {:.0} um^2, worst slack {:.3} ns, timing {}",
        design.name,
        result.design.netlist.gate_count(),
        result.area,
        result.report.worst_slack(),
        if result.met_timing { "met" } else { "VIOLATED" }
    );
    println!(
        "iterations {}, buffers inserted {}",
        result.iterations, result.buffers_inserted
    );
    for (cell, n) in result.design.cell_usage(&lib).into_iter().take(10) {
        println!("  {cell:<10} x{n}");
    }
    if let Some(vout) = opts.get("verilog") {
        std::fs::write(vout, write_verilog(&result.design, &lib)?)?;
        println!("wrote {vout}");
    }
    if let Some(sdf_out) = opts.get("sdf") {
        std::fs::write(
            sdf_out,
            varitune::sta::write_sdf(&result.design, &lib, &result.report)?,
        )?;
        println!("wrote {sdf_out}");
    }
    Ok(())
}
