//! Million-gate SoC generator: tiled MCU/DSP replication over a bus fabric.
//!
//! The paper's evaluation vehicles top out at ~25 k gates. The scale
//! benches need designs 10–40× larger with the same structural character,
//! so this generator stamps the existing MCU ([`generate_mcu`]) and
//! transposed-FIR DSP ([`generate_fir`]) netlists as **tiles** into a
//! single [`Netlist`]:
//!
//! * each template is generated once; stamping a tile only remaps net ids
//!   through a per-tile table and appends rows to the flat arrays —
//!   construction never materializes per-instance heap objects (net names
//!   stream into the arena via `format_args!`);
//! * tile 0 exposes its template's primary inputs as the SoC's primary
//!   inputs; every later tile's template input `i` is instead driven by a
//!   **bus-bridge flip-flop** whose data input taps output
//!   `(i·7 + tile) mod n_out` of the previous tile — a registered bus
//!   fabric, so inter-tile paths always cross a sequential boundary, the
//!   combinational depth stays that of a single tile, and every
//!   combinational level is `tiles`× wider than the template's (exactly
//!   the shape the sharded propagation in `varitune-sta` scales on);
//! * every `dsp_every`-th tile is the DSP variant, mixing the FIR's
//!   adder-dominated profile into the MCU sea; the last tile's outputs
//!   are the SoC's primary outputs.
//!
//! Determinism: the generator is a pure function of [`SocConfig`].

use crate::dsp::{generate_fir, FirConfig};
use crate::ir::{GateKind, NetId, Netlist};
use crate::mcu::{generate_mcu, McuConfig};

/// SoC generator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocConfig {
    /// Number of tiles stamped in sequence.
    pub tiles: usize,
    /// Every `dsp_every`-th tile (1-based) is the DSP/FIR variant;
    /// `0` disables DSP tiles.
    pub dsp_every: usize,
    /// MCU template parameters.
    pub mcu: McuConfig,
    /// DSP template parameters.
    pub fir: FirConfig,
}

impl SocConfig {
    /// ~10× the paper design: 11 tiles (9 MCU + 2 DSP), ~260 k gates.
    pub fn x10() -> Self {
        Self {
            tiles: 11,
            dsp_every: 4,
            mcu: McuConfig::paper_scale(),
            fir: FirConfig::paper_scale(),
        }
    }

    /// ~40× the paper design: 44 tiles (33 MCU + 11 DSP), >1 M gates.
    pub fn x40() -> Self {
        Self {
            tiles: 44,
            ..Self::x10()
        }
    }

    /// The same tile topology over the small test templates (~20 k gates
    /// for [`SocConfig::x10`]) — used by the debug-profile test suite and
    /// `--smoke` CI runs.
    pub fn smoke(self) -> Self {
        Self {
            mcu: McuConfig::small_for_tests(),
            fir: FirConfig::small_for_tests(),
            ..self
        }
    }
}

/// Generates the tiled SoC netlist. Deterministic in `cfg`.
///
/// # Panics
///
/// Panics on a degenerate configuration (zero tiles, or a template
/// without outputs).
pub fn generate_soc(cfg: &SocConfig) -> Netlist {
    assert!(cfg.tiles >= 1, "need at least one tile");
    let mcu = generate_mcu(&cfg.mcu);
    let fir = generate_fir(&cfg.fir);
    assert!(
        !mcu.primary_outputs.is_empty() && !fir.primary_outputs.is_empty(),
        "templates must expose outputs for the bus fabric"
    );

    // Overflow here means the caller asked for more gates than fit in
    // usize — no SoC that large is representable anyway, so panic loudly.
    #[allow(clippy::expect_used)]
    let est_gates: usize = cfg
        .tiles
        .checked_mul(mcu.gate_count().max(fir.gate_count()) + mcu.primary_inputs.len())
        .expect("tile count overflow");
    let est_nets = cfg.tiles * mcu.net_count().max(fir.net_count());
    let mut soc = Netlist::with_capacity(format!("soc{}t", cfg.tiles), est_gates, est_nets);

    // Reused scratch across tiles — stamping allocates nothing per gate.
    let mut remap: Vec<NetId> = Vec::new();
    let mut ins: Vec<NetId> = Vec::with_capacity(8);
    let mut outs: Vec<NetId> = Vec::with_capacity(2);
    let mut prev_outputs: Vec<NetId> = Vec::new();

    for tile in 0..cfg.tiles {
        let is_dsp = cfg.dsp_every > 0 && (tile + 1) % cfg.dsp_every == 0;
        let tpl: &Netlist = if is_dsp { &fir } else { &mcu };

        // Fresh SoC net per template net, names streamed into the arena.
        remap.clear();
        remap.extend(
            (0..tpl.net_count() as u32)
                .map(|i| soc.add_net(format_args!("t{tile}_{}", tpl.net_name(NetId(i))))),
        );

        if tile == 0 {
            for &pi in &tpl.primary_inputs {
                soc.mark_input(remap[pi.0 as usize]);
            }
        } else {
            // Bus fabric: each template input is fed by a bridge register
            // tapping a rotated selection of the previous tile's outputs.
            for (i, &pi) in tpl.primary_inputs.iter().enumerate() {
                let src = prev_outputs[(i * 7 + tile) % prev_outputs.len()];
                soc.add_gate(GateKind::Dff, &[src], &[remap[pi.0 as usize]]);
            }
        }

        for gi in 0..tpl.gate_count() {
            ins.clear();
            ins.extend(tpl.gate_inputs(gi).iter().map(|n| remap[n.0 as usize]));
            outs.clear();
            outs.extend(tpl.gate_outputs(gi).iter().map(|n| remap[n.0 as usize]));
            soc.add_gate(tpl.gate_kind(gi), &ins, &outs);
        }

        prev_outputs.clear();
        prev_outputs.extend(tpl.primary_outputs.iter().map(|n| remap[n.0 as usize]));
    }

    for &po in &prev_outputs {
        soc.mark_output(po);
    }

    varitune_trace::add("netlist.soc_generated", 1);
    varitune_trace::add("netlist.gates_generated", soc.gate_count() as u64);
    soc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soc_is_valid_and_tiled() {
        let cfg = SocConfig {
            tiles: 3,
            ..SocConfig::x10()
        }
        .smoke();
        let soc = generate_soc(&cfg);
        soc.validate().unwrap();
        let mcu = generate_mcu(&cfg.mcu);
        // 3 tiles ⇒ strictly more than twice the template, plus bridges.
        assert!(soc.gate_count() > 2 * mcu.gate_count());
        // Only tile 0's inputs are exposed.
        assert_eq!(soc.primary_inputs.len(), mcu.primary_inputs.len());
        assert_eq!(soc.primary_outputs.len(), mcu.primary_outputs.len());
    }

    #[test]
    fn deterministic_in_config() {
        let cfg = SocConfig {
            tiles: 2,
            ..SocConfig::x10()
        }
        .smoke();
        assert_eq!(generate_soc(&cfg), generate_soc(&cfg));
    }

    #[test]
    fn dsp_tiles_are_mixed_in() {
        let cfg = SocConfig {
            tiles: 4,
            ..SocConfig::x10()
        }
        .smoke();
        let soc = generate_soc(&cfg);
        soc.validate().unwrap();
        // Tile 3 (1-based 4, dsp_every = 4) is the FIR: its adder gates
        // appear in the stamped design.
        let has_fa = (0..soc.gate_count()).any(|gi| soc.gate_kind(gi) == GateKind::FullAdder);
        assert!(has_fa, "expected DSP full-adders in the mix");
    }
}
