//! Netlist census used by experiment reports.

use std::collections::BTreeMap;

use crate::ir::{GateKind, Netlist};

/// Census of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total gate instances.
    pub total_gates: usize,
    /// Flip-flop instances.
    pub flip_flops: usize,
    /// Net count.
    pub nets: usize,
    /// Primary inputs.
    pub primary_inputs: usize,
    /// Primary outputs.
    pub primary_outputs: usize,
    /// Instance count per gate kind.
    pub by_kind: BTreeMap<GateKind, usize>,
    /// Largest fanout in the design.
    pub max_fanout: usize,
}

impl Netlist {
    /// Computes the census.
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind: BTreeMap<GateKind, usize> = BTreeMap::new();
        let mut fanout: BTreeMap<crate::ir::NetId, usize> = BTreeMap::new();
        for gi in 0..self.gate_count() {
            *by_kind.entry(self.gate_kind(gi)).or_default() += 1;
            for &i in self.gate_inputs(gi) {
                *fanout.entry(i).or_default() += 1;
            }
        }
        NetlistStats {
            total_gates: self.gate_count(),
            flip_flops: by_kind.get(&GateKind::Dff).copied().unwrap_or(0),
            nets: self.net_count(),
            primary_inputs: self.primary_inputs.len(),
            primary_outputs: self.primary_outputs.len(),
            by_kind,
            max_fanout: fanout.values().copied().max().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "gates: {} (dff: {}), nets: {}, PI/PO: {}/{}, max fanout: {}",
            self.total_gates,
            self.flip_flops,
            self.nets,
            self.primary_inputs,
            self.primary_outputs,
            self.max_fanout
        )?;
        for (k, n) in &self.by_kind {
            writeln!(f, "  {k:<12} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::mcu::{generate_mcu, McuConfig};

    #[test]
    fn stats_count_kinds() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let s = nl.stats();
        assert_eq!(s.total_gates, nl.gate_count());
        assert_eq!(s.by_kind.values().sum::<usize>(), s.total_gates);
        assert!(s.flip_flops > 0);
        assert!(s.max_fanout > 1);
        assert!(s.primary_inputs > 0);
    }

    #[test]
    fn display_is_nonempty_and_mentions_dffs() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        let text = nl.stats().to_string();
        assert!(text.contains("dff"));
        assert!(text.contains("gates:"));
    }
}
