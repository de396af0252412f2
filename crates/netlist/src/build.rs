//! Structural builders for datapath and control blocks.
//!
//! Every function appends gates to a [`Netlist`] and returns the nets that
//! carry its results. Multi-bit signals are `Vec<NetId>` with bit 0 the LSB.

use crate::ir::{GateKind, NetId, Netlist};

/// Creates `width` fresh internal nets named `prefix[i]`.
pub fn word(nl: &mut Netlist, prefix: &str, width: usize) -> Vec<NetId> {
    (0..width)
        .map(|i| nl.add_net(format!("{prefix}[{i}]")))
        .collect()
}

/// Creates `width` primary-input nets named `prefix[i]`.
pub fn input_word(nl: &mut Netlist, prefix: &str, width: usize) -> Vec<NetId> {
    (0..width)
        .map(|i| nl.add_input(format!("{prefix}[{i}]")))
        .collect()
}

/// Registers every bit of `d` through a flip-flop; returns the `q` word.
pub fn register_word(nl: &mut Netlist, prefix: &str, d: &[NetId]) -> Vec<NetId> {
    d.iter()
        .enumerate()
        .map(|(i, &bit)| {
            let q = nl.add_net(format!("{prefix}_q[{i}]"));
            nl.add_gate(GateKind::Dff, &[bit], &[q]);
            q
        })
        .collect()
}

/// Bitwise unary gate over a word.
pub fn map_word(nl: &mut Netlist, kind: GateKind, prefix: &str, a: &[NetId]) -> Vec<NetId> {
    a.iter()
        .enumerate()
        .map(|(i, &bit)| {
            let z = nl.add_net(format!("{prefix}[{i}]"));
            nl.add_gate(kind, &[bit], &[z]);
            z
        })
        .collect()
}

/// Bitwise binary gate over two words.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn zip_word(
    nl: &mut Netlist,
    kind: GateKind,
    prefix: &str,
    a: &[NetId],
    b: &[NetId],
) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(i, (&x, &y))| {
            let z = nl.add_net(format!("{prefix}[{i}]"));
            nl.add_gate(kind, &[x, y], &[z]);
            z
        })
        .collect()
}

/// Ripple-carry adder; returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the words differ in width or are empty.
pub fn ripple_adder(
    nl: &mut Netlist,
    prefix: &str,
    a: &[NetId],
    b: &[NetId],
    cin: NetId,
) -> (Vec<NetId>, NetId) {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    assert!(!a.is_empty(), "adder width must be positive");
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let s = nl.add_net(format!("{prefix}_s[{i}]"));
        let c = nl.add_net(format!("{prefix}_c[{i}]"));
        nl.add_gate(GateKind::FullAdder, &[x, y, carry], &[s, c]);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Incrementer built from half adders; `one` is the carry-in tie net.
pub fn incrementer(nl: &mut Netlist, prefix: &str, a: &[NetId], one: NetId) -> Vec<NetId> {
    let mut carry = one;
    let mut out = Vec::with_capacity(a.len());
    for (i, &x) in a.iter().enumerate() {
        let s = nl.add_net(format!("{prefix}_s[{i}]"));
        let c = nl.add_net(format!("{prefix}_c[{i}]"));
        nl.add_gate(GateKind::HalfAdder, &[x, carry], &[s, c]);
        out.push(s);
        carry = c;
    }
    out
}

/// Word-wide 2:1 mux.
pub fn mux2_word(
    nl: &mut Netlist,
    prefix: &str,
    a: &[NetId],
    b: &[NetId],
    sel: NetId,
) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "word width mismatch");
    a.iter()
        .zip(b)
        .enumerate()
        .map(|(i, (&x, &y))| {
            let z = nl.add_net(format!("{prefix}[{i}]"));
            nl.add_gate(GateKind::Mux2, &[x, y, sel], &[z]);
            z
        })
        .collect()
}

/// Word-wide 4:1 mux.
pub fn mux4_word(
    nl: &mut Netlist,
    prefix: &str,
    words: [&[NetId]; 4],
    s0: NetId,
    s1: NetId,
) -> Vec<NetId> {
    let w = words[0].len();
    assert!(words.iter().all(|x| x.len() == w), "word width mismatch");
    (0..w)
        .map(|i| {
            let z = nl.add_net(format!("{prefix}[{i}]"));
            nl.add_gate(
                GateKind::Mux4,
                &[words[0][i], words[1][i], words[2][i], words[3][i], s0, s1],
                &[z],
            );
            z
        })
        .collect()
}

/// N-way word mux selecting `words[sel]`; `sels` has `ceil(log2(N))` bits.
/// Built as a tree of 4:1 and 2:1 muxes.
///
/// # Panics
///
/// Panics if `words` is empty or `sels` is shorter than needed.
pub fn mux_tree(
    nl: &mut Netlist,
    prefix: &str,
    words: &[Vec<NetId>],
    sels: &[NetId],
) -> Vec<NetId> {
    assert!(!words.is_empty(), "mux tree needs at least one word");
    if words.len() == 1 {
        return words[0].clone();
    }
    let need = (usize::BITS - (words.len() - 1).leading_zeros()) as usize;
    assert!(sels.len() >= need, "not enough select bits");
    if words.len() >= 4 {
        // Group in fours on (s0, s1), recurse on the rest of the selects.
        let mut level = Vec::new();
        for (k, chunk) in words.chunks(4).enumerate() {
            let reduced = match chunk.len() {
                4 => mux4_word(
                    nl,
                    &format!("{prefix}_l{k}"),
                    [&chunk[0], &chunk[1], &chunk[2], &chunk[3]],
                    sels[0],
                    sels[1],
                ),
                3 => {
                    let lo = mux2_word(
                        nl,
                        &format!("{prefix}_l{k}a"),
                        &chunk[0],
                        &chunk[1],
                        sels[0],
                    );
                    mux2_word(nl, &format!("{prefix}_l{k}"), &lo, &chunk[2], sels[1])
                }
                2 => mux2_word(nl, &format!("{prefix}_l{k}"), &chunk[0], &chunk[1], sels[0]),
                _ => chunk[0].clone(),
            };
            level.push(reduced);
        }
        mux_tree(
            nl,
            &format!("{prefix}_u"),
            &level,
            &sels[2.min(sels.len())..],
        )
    } else {
        let z = mux2_word(nl, &format!("{prefix}_m"), &words[0], &words[1], sels[0]);
        if words.len() == 2 {
            z
        } else {
            mux_tree(
                nl,
                &format!("{prefix}_u"),
                &[z, words[2].clone()],
                &sels[1..],
            )
        }
    }
}

/// AND-reduction tree over `bits` (uses up-to-4-input ANDs).
pub fn and_reduce(nl: &mut Netlist, prefix: &str, bits: &[NetId]) -> NetId {
    reduce(nl, GateKind::And, prefix, bits)
}

/// OR-reduction tree over `bits`.
pub fn or_reduce(nl: &mut Netlist, prefix: &str, bits: &[NetId]) -> NetId {
    reduce(nl, GateKind::Or, prefix, bits)
}

/// XOR-reduction tree over `bits` (parity).
pub fn xor_reduce(nl: &mut Netlist, prefix: &str, bits: &[NetId]) -> NetId {
    // XOR gates are strictly 2-input in the IR.
    assert!(!bits.is_empty(), "reduction of empty word");
    let mut level: Vec<NetId> = bits.to_vec();
    let mut stage = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for (k, pair) in level.chunks(2).enumerate() {
            if pair.len() == 2 {
                let z = nl.add_net(format!("{prefix}_x{stage}_{k}"));
                nl.add_gate(GateKind::Xor, &[pair[0], pair[1]], &[z]);
                next.push(z);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
        stage += 1;
    }
    level[0]
}

fn reduce(nl: &mut Netlist, kind: GateKind, prefix: &str, bits: &[NetId]) -> NetId {
    assert!(!bits.is_empty(), "reduction of empty word");
    let mut level: Vec<NetId> = bits.to_vec();
    let mut stage = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for (k, chunk) in level.chunks(4).enumerate() {
            if chunk.len() == 1 {
                next.push(chunk[0]);
            } else {
                let z = nl.add_net(format!("{prefix}_r{stage}_{k}"));
                nl.add_gate(kind, chunk, &[z]);
                next.push(z);
            }
        }
        level = next;
        stage += 1;
    }
    level[0]
}

/// Full binary decoder: `sel` (n bits) to `2^n` one-hot outputs.
pub fn decoder(nl: &mut Netlist, prefix: &str, sel: &[NetId]) -> Vec<NetId> {
    let inv: Vec<NetId> = sel
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let z = nl.add_net(format!("{prefix}_n[{i}]"));
            nl.add_gate(GateKind::Inv, &[s], &[z]);
            z
        })
        .collect();
    (0..(1usize << sel.len()))
        .map(|code| {
            let literals: Vec<NetId> = sel
                .iter()
                .enumerate()
                .map(|(bit, &s)| if code >> bit & 1 == 1 { s } else { inv[bit] })
                .collect();
            if literals.len() == 1 {
                literals[0]
            } else {
                and_reduce(nl, &format!("{prefix}_d{code}"), &literals)
            }
        })
        .collect()
}

/// Logarithmic left barrel shifter: shifts `a` by `shamt` (LSB-first),
/// filling with `zero`.
pub fn barrel_shifter(
    nl: &mut Netlist,
    prefix: &str,
    a: &[NetId],
    shamt: &[NetId],
    zero: NetId,
) -> Vec<NetId> {
    let mut cur = a.to_vec();
    for (stage, &s) in shamt.iter().enumerate() {
        let dist = 1usize << stage;
        let shifted: Vec<NetId> = (0..cur.len())
            .map(|i| if i >= dist { cur[i - dist] } else { zero })
            .collect();
        cur = mux2_word(nl, &format!("{prefix}_st{stage}"), &cur, &shifted, s);
    }
    cur
}

/// Register file with one write port and two read ports.
///
/// Returns `(read1, read2)`. `waddr`/`raddr*` are binary addresses of
/// `log2(regs)` bits; `wen` gates the write.
#[allow(clippy::too_many_arguments)]
pub fn register_file(
    nl: &mut Netlist,
    prefix: &str,
    regs: usize,
    wdata: &[NetId],
    waddr: &[NetId],
    wen: NetId,
    raddr1: &[NetId],
    raddr2: &[NetId],
) -> (Vec<NetId>, Vec<NetId>) {
    assert!(
        regs.is_power_of_two(),
        "register count must be a power of two"
    );
    assert_eq!(waddr.len(), regs.trailing_zeros() as usize);
    let onehot = decoder(nl, &format!("{prefix}_wd"), waddr);
    let mut qwords = Vec::with_capacity(regs);
    for (r, &hot) in onehot.iter().enumerate() {
        let en = nl.add_net(format!("{prefix}_we[{r}]"));
        nl.add_gate(GateKind::And, &[hot, wen], &[en]);
        // Write-enable mux feeding each bit's flip-flop. The q net must
        // exist before the mux that reads it (feedback through the DFF).
        let q: Vec<NetId> = (0..wdata.len())
            .map(|i| nl.add_net(format!("{prefix}_r{r}_q[{i}]")))
            .collect();
        let d = {
            let muxed: Vec<NetId> = q
                .iter()
                .zip(wdata)
                .enumerate()
                .map(|(i, (&qb, &wb))| {
                    let z = nl.add_net(format!("{prefix}_r{r}_d[{i}]"));
                    nl.add_gate(GateKind::Mux2, &[qb, wb, en], &[z]);
                    z
                })
                .collect();
            muxed
        };
        for (&db, &qb) in d.iter().zip(&q) {
            nl.add_gate(GateKind::Dff, &[db], &[qb]);
        }
        qwords.push(q);
    }
    let r1 = mux_tree(nl, &format!("{prefix}_rp1"), &qwords, raddr1);
    let r2 = mux_tree(nl, &format!("{prefix}_rp2"), &qwords, raddr2);
    (r1, r2)
}

/// Deterministic pseudo-random combinational cloud: `gate_count` gates wired
/// from `inputs` and earlier cloud nets. The logic depth of every net is
/// tracked; a net whose depth reaches `max_depth` is registered through a
/// flip-flop before it can feed further logic, so no combinational path
/// inside the cloud exceeds `max_depth` gates — mirroring how RTL control
/// logic is bounded by its pipeline registers. Returns a handful of output
/// nets (the most recently produced ones).
pub fn logic_cloud(
    nl: &mut Netlist,
    prefix: &str,
    inputs: &[NetId],
    gate_count: usize,
    max_depth: usize,
    seed: u64,
) -> Vec<NetId> {
    assert!(inputs.len() >= 2, "cloud needs at least two inputs");
    assert!(max_depth >= 2, "cloud depth bound too small");
    let mut rng = Lcg::new(seed);
    let mut pool: Vec<NetId> = inputs.to_vec();
    let mut depth: Vec<usize> = vec![0; pool.len()];
    let kinds = [
        GateKind::Nand,
        GateKind::Nor,
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Inv,
        GateKind::Mux2,
        GateKind::Xnor,
    ];
    for g in 0..gate_count {
        let kind = kinds[rng.below(kinds.len())];
        let arity = match kind {
            GateKind::Inv => 1,
            GateKind::Mux2 => 3,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => 2 + rng.below(3),
            _ => 2,
        };
        // Bias input picks toward recent nets so the cloud forms layered
        // logic rather than one wide layer.
        let window = pool.len().min(96);
        let mut ins = Vec::with_capacity(arity);
        let mut in_depth = 0usize;
        for _ in 0..arity {
            let from_window = rng.below(4) != 0 && pool.len() > window;
            let idx = if from_window {
                pool.len() - window + rng.below(window)
            } else {
                rng.below(pool.len())
            };
            ins.push(pool[idx]);
            in_depth = in_depth.max(depth[idx]);
        }
        let z = nl.add_net(format!("{prefix}_g{g}"));
        nl.add_gate(kind, &ins, &[z]);
        if in_depth + 1 >= max_depth {
            // Register before the bound is crossed.
            let q = nl.add_net(format!("{prefix}_q{g}"));
            nl.add_gate(GateKind::Dff, &[z], &[q]);
            pool.push(q);
            depth.push(0);
        } else {
            pool.push(z);
            depth.push(in_depth + 1);
        }
    }
    pool[pool.len() - pool.len().min(8)..].to_vec()
}

/// Minimal deterministic PRNG so the netlist crate stays dependency-free.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Netlist {
        Netlist::new("t")
    }

    #[test]
    fn ripple_adder_shape() {
        let mut nl = fresh();
        let a = input_word(&mut nl, "a", 8);
        let b = input_word(&mut nl, "b", 8);
        let cin = nl.add_input("cin");
        let (sum, _cout) = ripple_adder(&mut nl, "add", &a, &b, cin);
        assert_eq!(sum.len(), 8);
        assert_eq!(nl.stats().by_kind[&GateKind::FullAdder], 8);
        nl.validate().unwrap();
    }

    #[test]
    fn register_word_adds_dffs() {
        let mut nl = fresh();
        let d = input_word(&mut nl, "d", 4);
        let q = register_word(&mut nl, "r", &d);
        assert_eq!(q.len(), 4);
        assert_eq!(nl.stats().by_kind[&GateKind::Dff], 4);
        nl.validate().unwrap();
    }

    #[test]
    fn decoder_is_one_hot_sized() {
        let mut nl = fresh();
        let sel = input_word(&mut nl, "s", 3);
        let hot = decoder(&mut nl, "dec", &sel);
        assert_eq!(hot.len(), 8);
        nl.validate().unwrap();
    }

    #[test]
    fn mux_tree_handles_non_power_of_two() {
        for n in [2usize, 3, 5, 6, 8, 16] {
            let mut nl = fresh();
            let words: Vec<Vec<NetId>> = (0..n)
                .map(|i| input_word(&mut nl, &format!("w{i}"), 4))
                .collect();
            let sels = input_word(&mut nl, "s", 4);
            let z = mux_tree(&mut nl, "m", &words, &sels);
            assert_eq!(z.len(), 4, "width preserved for n={n}");
            nl.validate().unwrap();
        }
    }

    #[test]
    fn barrel_shifter_stage_count() {
        let mut nl = fresh();
        let a = input_word(&mut nl, "a", 16);
        let sh = input_word(&mut nl, "sh", 4);
        let zero = nl.add_input("zero");
        let z = barrel_shifter(&mut nl, "bs", &a, &sh, zero);
        assert_eq!(z.len(), 16);
        assert_eq!(nl.stats().by_kind[&GateKind::Mux2], 4 * 16);
        nl.validate().unwrap();
    }

    #[test]
    fn register_file_validates_and_reads() {
        let mut nl = fresh();
        let wdata = input_word(&mut nl, "wd", 8);
        let waddr = input_word(&mut nl, "wa", 2);
        let wen = nl.add_input("wen");
        let ra1 = input_word(&mut nl, "ra1", 2);
        let ra2 = input_word(&mut nl, "ra2", 2);
        let (r1, r2) = register_file(&mut nl, "rf", 4, &wdata, &waddr, wen, &ra1, &ra2);
        assert_eq!(r1.len(), 8);
        assert_eq!(r2.len(), 8);
        assert_eq!(nl.stats().by_kind[&GateKind::Dff], 4 * 8);
        nl.validate().unwrap();
    }

    #[test]
    fn reductions_validate() {
        let mut nl = fresh();
        let bits = input_word(&mut nl, "b", 13);
        let a = and_reduce(&mut nl, "a", &bits);
        let o = or_reduce(&mut nl, "o", &bits);
        let x = xor_reduce(&mut nl, "x", &bits);
        nl.mark_output(a);
        nl.mark_output(o);
        nl.mark_output(x);
        nl.validate().unwrap();
    }

    #[test]
    fn logic_cloud_is_deterministic_and_valid() {
        let mk = |seed| {
            let mut nl = fresh();
            let ins = input_word(&mut nl, "i", 8);
            let outs = logic_cloud(&mut nl, "c", &ins, 300, 40, seed);
            for o in outs {
                nl.mark_output(o);
            }
            nl.validate().unwrap();
            nl
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }

    #[test]
    fn logic_cloud_bounds_combinational_depth() {
        let max_depth = 12;
        let mut nl = fresh();
        let ins = input_word(&mut nl, "i", 4);
        logic_cloud(&mut nl, "c", &ins, 600, max_depth, 1);
        let dffs = nl.stats().by_kind[&GateKind::Dff];
        assert!(dffs > 0, "a deep cloud must register something");

        // Longest combinational chain (in gates) must respect the bound.
        let driver = nl.driver_map();
        let mut depth = vec![0usize; nl.gate_count()];
        // Gates were appended in topological order by the builder.
        for gi in 0..nl.gate_count() {
            if nl.gate_kind(gi).is_sequential() {
                continue;
            }
            let d = nl
                .gate_inputs(gi)
                .iter()
                .filter_map(|i| driver.get(i))
                .filter(|&&src| !nl.gate_kind(src).is_sequential())
                .map(|&src| depth[src])
                .max()
                .unwrap_or(0);
            depth[gi] = d + 1;
        }
        let worst = depth.iter().max().copied().unwrap_or(0);
        assert!(
            worst <= max_depth,
            "combinational depth {worst} exceeds bound {max_depth}"
        );
    }

    #[test]
    fn incrementer_validates() {
        let mut nl = fresh();
        let a = input_word(&mut nl, "a", 8);
        let one = nl.add_input("one");
        let z = incrementer(&mut nl, "inc", &a, one);
        assert_eq!(z.len(), 8);
        assert_eq!(nl.stats().by_kind[&GateKind::HalfAdder], 8);
        nl.validate().unwrap();
    }
}
