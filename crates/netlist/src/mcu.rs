//! Deterministic microcontroller-class design generator.
//!
//! Composes the [`crate::build`] blocks into a design with the gate count
//! and structural profile of the paper's evaluation vehicle (a 20 k-gate
//! 32-bit microcontroller with an AHB bus): a CPU datapath (register file,
//! ALU, barrel shifter, multiplier array), program-counter logic, an
//! instruction-decode cloud, a bus fabric with several slaves, timers and a
//! serial peripheral. The mix produces the path-depth spread the experiments
//! need — deep carry chains through the adders and multiplier, medium decode
//! paths, and many short register-to-register hops.

use crate::build::{
    barrel_shifter, incrementer, input_word, logic_cloud, mux2_word, mux_tree, register_file,
    register_word, ripple_adder, word, xor_reduce, zip_word,
};
use crate::ir::{GateKind, NetId, Netlist};

/// Parameters of the generated microcontroller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McuConfig {
    /// Datapath width in bits.
    pub width: usize,
    /// Number of architectural registers (power of two).
    pub registers: usize,
    /// Gates in the instruction-decode cloud.
    pub decode_cloud: usize,
    /// Gates in the interrupt/SoC control cloud.
    pub control_cloud: usize,
    /// Number of timer peripherals.
    pub timers: usize,
    /// Multiplier operand width (rows of the add array).
    pub mult_width: usize,
    /// Number of bus slaves muxed onto the read-data path.
    pub bus_slaves: usize,
    /// Seed for the pseudo-random clouds.
    pub seed: u64,
}

impl McuConfig {
    /// The paper-scale ~20 k-gate configuration.
    pub fn paper_scale() -> Self {
        Self {
            width: 32,
            registers: 16,
            decode_cloud: 9400,
            control_cloud: 7200,
            timers: 4,
            mult_width: 12,
            bus_slaves: 8,
            seed: 0x5eed_cafe,
        }
    }

    /// A much smaller configuration for fast unit tests (~1–2 k gates).
    pub fn small_for_tests() -> Self {
        Self {
            width: 8,
            registers: 4,
            decode_cloud: 300,
            control_cloud: 200,
            timers: 1,
            mult_width: 4,
            bus_slaves: 2,
            seed: 0x5eed_cafe,
        }
    }
}

impl Default for McuConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

/// Generates the microcontroller netlist for `cfg`. Deterministic.
///
/// # Panics
///
/// Panics if `cfg.registers` is not a power of two or widths are zero —
/// configuration bugs, not runtime conditions.
pub fn generate_mcu(cfg: &McuConfig) -> Netlist {
    assert!(cfg.width >= 4, "datapath width too small");
    assert!(cfg.registers.is_power_of_two(), "registers must be 2^n");
    let w = cfg.width;
    let mut nl = Netlist::new(format!("mcu{}w{}", cfg.registers, w));

    // Tie nets (tie-high / tie-low cells in a real flow).
    let one = nl.add_input("tie_one");
    let zero = nl.add_input("tie_zero");

    // External interfaces.
    let irq = input_word(&mut nl, "irq", 8);
    let bus_rdata_ext = input_word(&mut nl, "hrdata_ext", w);
    let uart_rx = nl.add_input("uart_rx");

    // ------------------------------------------------------------------
    // Fetch: program counter, incrementer, branch mux.
    // ------------------------------------------------------------------
    let pc_d = word(&mut nl, "pc_d", w);
    let pc_q = register_word(&mut nl, "pc", &pc_d);
    let pc_inc = incrementer(&mut nl, "pc_inc", &pc_q, one);

    // ------------------------------------------------------------------
    // Decode: instruction register + decode cloud.
    // ------------------------------------------------------------------
    let instr = register_word(&mut nl, "ir", &bus_rdata_ext);
    let decode_bits = logic_cloud(
        &mut nl,
        "decode",
        &instr,
        cfg.decode_cloud,
        48,
        cfg.seed ^ 0xdec0de,
    );
    let alu_op0 = decode_bits[0];
    let alu_op1 = decode_bits[1 % decode_bits.len()];
    let wen = decode_bits[2 % decode_bits.len()];
    let branch = decode_bits[3 % decode_bits.len()];

    // Register addresses come straight from the instruction register.
    let abits = cfg.registers.trailing_zeros() as usize;
    let waddr: Vec<NetId> = (0..abits).map(|i| instr[i % w]).collect();
    let ra1: Vec<NetId> = (0..abits).map(|i| instr[(i + abits) % w]).collect();
    let ra2: Vec<NetId> = (0..abits).map(|i| instr[(i + 2 * abits) % w]).collect();

    // ------------------------------------------------------------------
    // Execute: register file, ALU, shifter, multiplier.
    // ------------------------------------------------------------------
    let wb_data = word(&mut nl, "wb", w);
    let (rs1, rs2) = register_file(
        &mut nl,
        "rf",
        cfg.registers,
        &wb_data,
        &waddr,
        wen,
        &ra1,
        &ra2,
    );

    // ALU: add, sub (via complement), and, xor, muxed by op bits.
    let rs2_n = crate::build::map_word(&mut nl, GateKind::Inv, "alu_bn", &rs2);
    let (add_s, add_co) = ripple_adder(&mut nl, "alu_add", &rs1, &rs2, zero);
    let (sub_s, _sub_co) = ripple_adder(&mut nl, "alu_sub", &rs1, &rs2_n, one);
    let and_w = zip_word(&mut nl, GateKind::And, "alu_and", &rs1, &rs2);
    let xor_w = zip_word(&mut nl, GateKind::Xor, "alu_xor", &rs1, &rs2);
    let alu_out = mux_tree(
        &mut nl,
        "alu_res",
        &[add_s, sub_s, and_w, xor_w],
        &[alu_op0, alu_op1],
    );

    // Barrel shifter on the ALU result.
    let shamt_bits = (usize::BITS - (w - 1).leading_zeros()) as usize;
    let shamt: Vec<NetId> = (0..shamt_bits).map(|i| instr[(i + 5) % w]).collect();
    let shifted = barrel_shifter(&mut nl, "shift", &alu_out, &shamt, zero);

    // Multiplier array: mult_width rows of AND partial products + adders.
    let mut acc = zip_word(&mut nl, GateKind::And, "mul_pp0", &rs1, &vec![rs2[0]; w]);
    for row in 1..cfg.mult_width {
        let pp = zip_word(
            &mut nl,
            GateKind::And,
            &format!("mul_pp{row}"),
            &rs1,
            &vec![rs2[row % w]; w],
        );
        // Shift the accumulator right by wiring (structural shift), add.
        let shifted_acc: Vec<NetId> = (0..w)
            .map(|i| if i + 1 < w { acc[i + 1] } else { acc[w - 1] })
            .collect();
        let (sum, _) = ripple_adder(&mut nl, &format!("mul_add{row}"), &shifted_acc, &pp, zero);
        // Pipeline register between rows: an unpipelined 12x32 add array
        // would create ~400-cell combinational paths, far beyond any real
        // design (the paper's deepest path is 57 cells).
        acc = register_word(&mut nl, &format!("mul_p{row}"), &sum);
    }
    let mul_out = acc;

    // Writeback select: alu/shift/mul/bus.
    let wb_sel0 = decode_bits[4 % decode_bits.len()];
    let wb_sel1 = decode_bits[5 % decode_bits.len()];
    let bus_rdata = word(&mut nl, "bus_rdata", w);
    let wb_pick = mux_tree(
        &mut nl,
        "wb_sel",
        &[alu_out.clone(), shifted, mul_out, bus_rdata.clone()],
        &[wb_sel0, wb_sel1],
    );
    for (d, src) in wb_data.iter().zip(&wb_pick) {
        nl.add_gate(GateKind::Buf, &[*src], &[*d]);
    }

    // Branch target mux feeding the PC.
    let pc_next = mux2_word(&mut nl, "pc_sel", &pc_inc, &alu_out, branch);
    for (d, src) in pc_d.iter().zip(&pc_next) {
        nl.add_gate(GateKind::Buf, &[*src], &[*d]);
    }

    // ------------------------------------------------------------------
    // Bus fabric: address decode over the ALU address, slave read muxing.
    // ------------------------------------------------------------------
    let slave_sel_bits = (usize::BITS - (cfg.bus_slaves.max(2) - 1).leading_zeros()) as usize;
    let slave_sel: Vec<NetId> = (0..slave_sel_bits).map(|i| alu_out[w - 1 - i]).collect();
    let mut slave_words: Vec<Vec<NetId>> = Vec::new();

    // Timers: free-running counters with compare match.
    let mut timer_irqs = Vec::new();
    for t in 0..cfg.timers {
        let cnt_d = word(&mut nl, &format!("tim{t}_d"), w);
        let cnt_q = register_word(&mut nl, &format!("tim{t}"), &cnt_d);
        let cnt_inc = incrementer(&mut nl, &format!("tim{t}_inc"), &cnt_q, one);
        for (d, src) in cnt_d.iter().zip(&cnt_inc) {
            nl.add_gate(GateKind::Buf, &[*src], &[*d]);
        }
        let cmp = zip_word(
            &mut nl,
            GateKind::Xnor,
            &format!("tim{t}_cmp"),
            &cnt_q,
            &alu_out,
        );
        let hit = crate::build::and_reduce(&mut nl, &format!("tim{t}_hit"), &cmp);
        timer_irqs.push(hit);
        slave_words.push(cnt_q);
    }

    // UART-ish shift register slave.
    {
        let mut bit = uart_rx;
        let mut shift = Vec::with_capacity(w);
        for i in 0..w {
            let q = nl.add_net(format!("uart_q[{i}]"));
            nl.add_gate(GateKind::Dff, &[bit], &[q]);
            shift.push(q);
            bit = q;
        }
        slave_words.push(shift);
    }

    // Remaining slaves: registered views of datapath words.
    while slave_words.len() < cfg.bus_slaves {
        let k = slave_words.len();
        let regd = register_word(&mut nl, &format!("slv{k}"), &alu_out);
        slave_words.push(regd);
    }
    slave_words.truncate(cfg.bus_slaves.max(1));
    let bus_pick = mux_tree(&mut nl, "bus_mux", &slave_words, &slave_sel);
    // External memory read data merges in through a final mux.
    let ext_sel = decode_bits[6 % decode_bits.len()];
    let bus_final = mux2_word(&mut nl, "bus_fin", &bus_pick, &bus_rdata_ext, ext_sel);
    for (d, src) in bus_rdata.iter().zip(&bus_final) {
        nl.add_gate(GateKind::Buf, &[*src], &[*d]);
    }

    // ------------------------------------------------------------------
    // Interrupt / SoC control cloud.
    // ------------------------------------------------------------------
    let mut ctl_inputs = irq.clone();
    ctl_inputs.extend(timer_irqs.iter().copied());
    ctl_inputs.extend(decode_bits.iter().copied());
    let ctl_out = logic_cloud(
        &mut nl,
        "soc_ctl",
        &ctl_inputs,
        cfg.control_cloud,
        40,
        cfg.seed ^ 0xc0117801,
    );

    // Observable outputs: status parity, PC and a control byte.
    let parity = xor_reduce(&mut nl, "status_par", &alu_out);
    nl.mark_output(parity);
    nl.mark_output(add_co);
    for &q in &pc_q {
        nl.mark_output(q);
    }
    for &c in ctl_out.iter().take(8) {
        nl.mark_output(c);
    }

    varitune_trace::add("netlist.mcu_generated", 1);
    varitune_trace::add("netlist.gates_generated", nl.gate_count() as u64);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mcu_validates() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        nl.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_mcu(&McuConfig::small_for_tests());
        let b = generate_mcu(&McuConfig::small_for_tests());
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_the_clouds() {
        let a = generate_mcu(&McuConfig::small_for_tests());
        let b = generate_mcu(&McuConfig {
            seed: 999,
            ..McuConfig::small_for_tests()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn paper_scale_hits_20k_gates() {
        let nl = generate_mcu(&McuConfig::paper_scale());
        nl.validate().unwrap();
        let n = nl.gate_count();
        assert!(
            (15_000..=26_000).contains(&n),
            "gate count {n} should be near the paper's 20 k"
        );
    }

    #[test]
    fn paper_scale_has_realistic_sequential_fraction() {
        let nl = generate_mcu(&McuConfig::paper_scale());
        let dffs = nl.stats().flip_flops;
        let frac = dffs as f64 / nl.gate_count() as f64;
        assert!(
            (0.03..0.35).contains(&frac),
            "sequential fraction {frac} out of range ({dffs} DFFs)"
        );
    }

    #[test]
    fn small_mcu_has_deep_carry_paths() {
        // The ripple adders guarantee chains at least `width` full adders
        // long; checked structurally by counting FullAdder gates.
        let cfg = McuConfig::small_for_tests();
        let nl = generate_mcu(&cfg);
        let fas = nl.stats().by_kind[&GateKind::FullAdder];
        assert!(fas >= 2 * cfg.width, "{fas}");
    }

    #[test]
    fn outputs_are_marked() {
        let nl = generate_mcu(&McuConfig::small_for_tests());
        assert!(!nl.primary_outputs.is_empty());
        assert!(!nl.primary_inputs.is_empty());
    }
}
