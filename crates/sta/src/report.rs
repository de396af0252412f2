//! Human-readable timing reports, in the style of a sign-off STA tool's
//! `report_timing`: the K most critical endpoints, each with its worst path
//! spelled out cell by cell (arc, operating point, incremental and
//! cumulative delay, statistical mean/sigma).

use std::fmt::Write as _;

use varitune_libchar::StatLibrary;
use varitune_liberty::Library;

use crate::graph::{EndpointKind, StaError, TimingReport};
use crate::mapped::MappedDesign;
use crate::paths::extract_path;

/// Renders the `k` most critical paths of `report` as text.
///
/// # Errors
///
/// Propagates [`StaError`] from path extraction;
/// [`StaError::MismatchedInput`] when `design` was mapped on a library
/// with another cell list than `lib` or `stat`, even if no path is printed.
pub fn report_timing(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    k: usize,
) -> Result<String, StaError> {
    for l in [lib, &stat.mean, &stat.sigma] {
        design.check_library(l)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Timing report — clock {:.3} ns (effective {:.3} ns), {} endpoints",
        report.config.clock_period,
        report.config.effective_period(),
        report.endpoints.len()
    );
    let mut seen = std::collections::BTreeSet::new();
    let mut printed = 0usize;
    for ep in report.critical_endpoints() {
        if printed >= k {
            break;
        }
        if !seen.insert(ep.net) {
            continue;
        }
        printed += 1;
        let path = extract_path(design, lib, stat, report, ep.net, 0.0)?;
        let kind = match ep.kind {
            EndpointKind::FlipFlopData { gate } => {
                format!("setup at {}", design.cell_label(gate, lib))
            }
            EndpointKind::PrimaryOutput => "primary output".to_string(),
        };
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Path {printed}: endpoint {} ({kind})",
            design.netlist.net_name(ep.net)
        );
        let _ = writeln!(
            out,
            "  arrival {:.4} ns, required {:.4} ns, slack {:+.4} ns ({})",
            ep.arrival,
            ep.required,
            ep.slack(),
            if ep.slack() >= 0.0 { "MET" } else { "VIOLATED" }
        );
        let _ = writeln!(
            out,
            "  statistical: mean {:.4} ns, sigma {:.4} ns, mean+3s {:.4} ns",
            path.mean,
            path.sigma,
            path.mean_plus_k_sigma(3.0)
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>4} {:>9} {:>9} {:>9} {:>9}",
            "cell", "arc", "slew", "load", "incr", "cum"
        );
        let mut cum = 0.0;
        for c in &path.cells {
            cum += c.delay;
            // The path was just extracted against `lib`, so the cell and
            // its output pin resolve; "CK" marks a launching flip-flop.
            let _ = writeln!(
                out,
                "  {:<12} {:>4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                c.cell_name(lib).unwrap_or("?"),
                format!(
                    "{}>{}",
                    c.related_pin_name(lib).unwrap_or("CK"),
                    c.out_pin_name(lib).unwrap_or("?")
                ),
                c.slew,
                c.load,
                c.delay,
                cum,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig, StatLibrary};
    use varitune_netlist::{GateKind, Netlist};

    fn fixture() -> (MappedDesign, Library, StatLibrary) {
        let cfg = GenerateConfig::small_for_tests();
        let lib = generate_nominal(&cfg);
        let stat = StatLibrary::from_libraries(&generate_mc_libraries(&lib, &cfg, 10, 5)).unwrap();
        let mut nl = Netlist::new("rpt");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        nl.add_gate(GateKind::Inv, &[x], &[y]);
        nl.add_gate(GateKind::Dff, &[y], &[q]);
        nl.mark_output(q);
        let d =
            MappedDesign::from_names(nl, &["INV_1", "INV_2", "DF_1"], &lib, WireModel::default())
                .unwrap();
        (d, lib, stat)
    }

    #[test]
    fn report_lists_paths_cells_and_slack() {
        let (d, lib, stat) = fixture();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(4.0)).unwrap();
        let text = report_timing(&d, &lib, &stat, &r, 5).unwrap();
        for needle in [
            "Timing report",
            "Path 1:",
            "setup at DF_1",
            "INV_1",
            "INV_2",
            "A>Z",
            "MET",
            "statistical: mean",
        ] {
            assert!(text.contains(needle), "missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn k_limits_the_path_count() {
        let (d, lib, stat) = fixture();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(4.0)).unwrap();
        let text = report_timing(&d, &lib, &stat, &r, 1).unwrap();
        assert!(text.contains("Path 1:"));
        assert!(!text.contains("Path 2:"));
    }

    #[test]
    fn violated_paths_say_so() {
        let (d, lib, stat) = fixture();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(0.01)).unwrap();
        let text = report_timing(&d, &lib, &stat, &r, 2).unwrap();
        assert!(text.contains("VIOLATED"), "{text}");
    }
}
