//! DSP datapath generator: a transposed-form FIR filter.
//!
//! A second evaluation vehicle with a very different structural profile
//! from the microcontroller: almost no random control logic, arithmetic
//! dominated (constant-coefficient multipliers as shift-add trees feeding
//! accumulator registers), uniform medium-depth paths. Used by the
//! generality ablation to show the tuning method does not depend on the
//! microcontroller's path mix.
//!
//! Transposed FIR: `acc_k = reg(acc_{k+1} + c_k · x)`, output `y = acc_0`.
//! Constant multiplication is implemented as the sum of `x << b` over the
//! set bits `b` of the coefficient, so the gate mix is full adders,
//! half adders and registers.

use crate::build::{input_word, register_word, ripple_adder, word};
use crate::ir::{GateKind, NetId, Netlist};

/// FIR generator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FirConfig {
    /// Number of filter taps (pipeline stages).
    pub taps: usize,
    /// Datapath width in bits.
    pub width: usize,
    /// Coefficient width in bits (number of candidate shift-add terms).
    pub coeff_width: usize,
    /// Seed selecting the pseudo-random coefficient set.
    pub seed: u64,
}

impl FirConfig {
    /// A filter in the same gate-count class as the paper's design when
    /// combined with a 32-bit datapath (~20 k gates).
    pub fn paper_scale() -> Self {
        Self {
            taps: 64,
            width: 32,
            coeff_width: 16,
            seed: 0xF117,
        }
    }

    /// Small configuration for tests (~1–2 k gates).
    pub fn small_for_tests() -> Self {
        Self {
            taps: 6,
            width: 8,
            coeff_width: 5,
            seed: 0xF117,
        }
    }
}

impl Default for FirConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

/// Generates the transposed FIR netlist. Deterministic in `cfg`.
///
/// # Panics
///
/// Panics on a degenerate configuration (zero taps/width).
pub fn generate_fir(cfg: &FirConfig) -> Netlist {
    assert!(cfg.taps >= 1, "need at least one tap");
    assert!(cfg.width >= 2, "datapath too narrow");
    assert!(cfg.coeff_width >= 1, "coefficients need at least one bit");
    let w = cfg.width;
    let mut nl = Netlist::new(format!("fir{}w{}", cfg.taps, w));
    let x = input_word(&mut nl, "x", w);
    let zero = nl.add_input("tie_zero");

    // Deterministic coefficient bit patterns (always with bit 0 set so no
    // tap degenerates to zero).
    let mut state = cfg.seed | 1;
    let mut next_coeff = || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) as usize) % (1 << cfg.coeff_width)) | 1
    };

    // acc flows from the deepest tap toward the output.
    let mut acc: Vec<NetId> = vec![zero; w];
    for tap in 0..cfg.taps {
        let coeff = next_coeff();
        // c * x as a chain of shifted adds.
        let mut product: Option<Vec<NetId>> = None;
        for bit in 0..cfg.coeff_width {
            if coeff >> bit & 1 == 0 {
                continue;
            }
            let shifted: Vec<NetId> = (0..w)
                .map(|i| if i >= bit { x[i - bit] } else { zero })
                .collect();
            product = Some(match product {
                None => shifted,
                Some(p) => {
                    let (sum, _) =
                        ripple_adder(&mut nl, &format!("t{tap}_b{bit}"), &p, &shifted, zero);
                    sum
                }
            });
        }
        // Coefficients are odd by construction, so bit 0 always contributes.
        #[allow(clippy::expect_used)]
        let product = product.expect("coefficient always has bit 0 set");
        let (sum, _) = ripple_adder(&mut nl, &format!("t{tap}_acc"), &acc, &product, zero);
        acc = register_word(&mut nl, &format!("t{tap}"), &sum);
    }

    // Registered output.
    let y = word(&mut nl, "y_d", w);
    for (d, src) in y.iter().zip(&acc) {
        nl.add_gate(GateKind::Buf, &[*src], &[*d]);
    }
    let y_q = register_word(&mut nl, "y", &y);
    for &q in &y_q {
        nl.mark_output(q);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn small_fir_validates() {
        let nl = generate_fir(&FirConfig::small_for_tests());
        nl.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = generate_fir(&FirConfig::small_for_tests());
        let b = generate_fir(&FirConfig::small_for_tests());
        assert_eq!(a, b);
        let c = generate_fir(&FirConfig {
            seed: 1,
            ..FirConfig::small_for_tests()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn paper_scale_lands_near_20k_gates() {
        let nl = generate_fir(&FirConfig::paper_scale());
        nl.validate().unwrap();
        let n = nl.gate_count();
        assert!((10_000..=30_000).contains(&n), "gate count {n}");
    }

    #[test]
    fn arithmetic_dominates_the_gate_mix() {
        let nl = generate_fir(&FirConfig::small_for_tests());
        let stats = nl.stats();
        let fas = stats
            .by_kind
            .get(&GateKind::FullAdder)
            .copied()
            .unwrap_or(0);
        assert!(
            fas * 2 > stats.total_gates - stats.flip_flops,
            "adders should dominate: {fas} of {}",
            stats.total_gates
        );
    }

    #[test]
    fn impulse_response_is_causal_and_nonzero() {
        // Push a 1 through the filter: the output must stay 0 for the
        // output register latency and then produce nonzero samples.
        let cfg = FirConfig::small_for_tests();
        let nl = generate_fir(&cfg);
        let mut sim = Simulator::new(&nl).unwrap();
        let n_in = nl.primary_inputs.len();
        let mut impulse = vec![false; n_in];
        impulse[0] = true; // x = 1 (bit 0), tie_zero is the last input = false
        let mut saw_nonzero = false;
        for cycle in 0..cfg.taps + 4 {
            let inputs = if cycle == 0 {
                impulse.clone()
            } else {
                vec![false; n_in]
            };
            sim.step(&inputs);
            let out_any = nl.primary_outputs.iter().any(|&o| sim.value(o));
            if cycle < 1 {
                assert!(!out_any, "output before the register latency");
            }
            saw_nonzero |= out_any;
        }
        assert!(saw_nonzero, "impulse must reach the output");
    }
}
