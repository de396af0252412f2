//! Seeded corruption operators over Liberty text and netlists.
//!
//! Shared by the fault-injection harness (`fault_harness`) and the parser
//! reference suite: both need the *same* damaged corpora, and the
//! reference suite's frozen records name their inputs by `(seed, index)`
//! into [`liberty_corpus`]: changing what an operator produces fails that
//! suite with "corpus generator changed".
//!
//! All randomness comes from the caller-provided
//! [`Xoshiro256PlusPlus`] state — no wall clock, no OS entropy — so any
//! artefact derived from these operators is bit-identical across reruns.

use varitune_netlist::{NetId, Netlist};
use varitune_variation::Xoshiro256PlusPlus;

/// Corruption operators over Liberty text, in scenario-rotation order.
pub const LIBERTY_OPS: &[&str] = &[
    "truncate",
    "unbalance-brace",
    "flip-char",
    "inject-nan",
    "inject-inf",
    "shuffle-axis",
    "delete-arc",
    "duplicate-cell",
    "insert-junk",
];

/// Corruption operators over netlists.
pub const NETLIST_OPS: &[&str] = &["dangling-port", "comb-cycle", "arity-break"];

/// Corruption operators over protocol frames (the `varitune-serve` wire
/// format: 4-byte big-endian length + UTF-8 JSON). Each renders an attack
/// the server must survive with at most one connection lost.
pub const FRAME_OPS: &[&str] = &[
    "truncate-length-prefix",
    "oversized-length",
    "invalid-utf8-payload",
    "mid-frame-disconnect",
];

fn pick(rng: &mut Xoshiro256PlusPlus, n: usize) -> usize {
    debug_assert!(n > 0);
    (rng.next_u64() % n as u64) as usize
}

/// Byte offsets of every occurrence of `needle` in `text`.
fn occurrences(text: &str, needle: &str) -> Vec<usize> {
    let mut at = 0;
    let mut found = Vec::new();
    while let Some(p) = text[at..].find(needle) {
        found.push(at + p);
        at += p + needle.len();
    }
    found
}

/// Extends a float literal starting at `start` over `[0-9.eE+-]`.
fn number_end(text: &str, start: usize) -> usize {
    text[start..]
        .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
        .map_or(text.len(), |off| start + off)
}

/// Matches the `{ ... }` block whose `{` is at `open`, returning the byte
/// offset just past the closing `}`.
fn block_end(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Applies the named Liberty corruption operator to `text`.
///
/// # Panics
///
/// Panics on an operator name outside [`LIBERTY_OPS`] — callers iterate
/// that constant, so an unknown name is a harness bug.
pub fn corrupt_liberty(op: &str, text: &str, rng: &mut Xoshiro256PlusPlus) -> String {
    let mut s = text.to_string();
    match op {
        "truncate" => {
            // Cut somewhere in the back three quarters (writer output is
            // ASCII, so any byte offset is a char boundary).
            let cut = s.len() / 4 + pick(rng, s.len() - s.len() / 4);
            s.truncate(cut);
        }
        "unbalance-brace" => {
            let braces = occurrences(&s, "}");
            if !braces.is_empty() {
                s.remove(braces[pick(rng, braces.len())]);
            }
        }
        "flip-char" => {
            // Clobber one byte of a cell body with a shell-ish junk char.
            let pos = s.len() / 4 + pick(rng, s.len() / 2);
            s.replace_range(pos..=pos, "@");
        }
        "inject-nan" | "inject-inf" => {
            let repl = if op == "inject-nan" { "nan" } else { "inf" };
            let starts = occurrences(&s, "0.");
            if !starts.is_empty() {
                let at = starts[pick(rng, starts.len())];
                let end = number_end(&s, at);
                s.replace_range(at..end, repl);
            }
        }
        "shuffle-axis" => {
            // Swap the first two entries of one index_1 axis list.
            let axes = occurrences(&s, "index_1 (\"");
            if !axes.is_empty() {
                let open = axes[pick(rng, axes.len())] + "index_1 (\"".len();
                if let Some(close) = s[open..].find('"').map(|p| open + p) {
                    let list = s[open..close].to_string();
                    let parts: Vec<&str> = list.split(", ").collect();
                    if parts.len() >= 2 {
                        let mut swapped = parts.clone();
                        swapped.swap(0, 1);
                        s.replace_range(open..close, &swapped.join(", "));
                    }
                }
            }
        }
        "delete-arc" => {
            let arcs = occurrences(&s, "timing ()");
            if !arcs.is_empty() {
                let at = arcs[pick(rng, arcs.len())];
                if let Some(open) = s[at..].find('{').map(|p| at + p) {
                    if let Some(end) = block_end(&s, open) {
                        s.replace_range(at..end, "");
                    }
                }
            }
        }
        "duplicate-cell" => {
            let cells = occurrences(&s, "cell (");
            if !cells.is_empty() {
                let at = cells[pick(rng, cells.len())];
                if let Some(open) = s[at..].find('{').map(|p| at + p) {
                    if let Some(end) = block_end(&s, open) {
                        let dup = s[at..end].to_string();
                        s.insert_str(end, "\n  ");
                        s.insert_str(end + 3, &dup);
                    }
                }
            }
        }
        "insert-junk" => {
            let pos = pick(rng, s.len());
            s.insert_str(pos, " @#%$ ");
        }
        other => unreachable!("unknown liberty operator {other}"),
    }
    s
}

/// Renders `payload` as a corrupted wire frame: the bytes an attacking
/// client writes before hanging up. The server must answer with a
/// structured `bad_request` where the socket still works (oversized
/// length, invalid UTF-8) and must simply drop the connection on the
/// truncation operators — in every case without dying.
///
/// # Panics
///
/// Panics on an operator name outside [`FRAME_OPS`] — callers iterate
/// that constant, so an unknown name is a harness bug.
#[must_use]
pub fn corrupt_frame(op: &str, payload: &str, rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    let header = (payload.len() as u32).to_be_bytes();
    match op {
        "truncate-length-prefix" => {
            // Only 1–3 of the 4 header bytes arrive before the disconnect.
            header[..1 + pick(rng, 3)].to_vec()
        }
        "oversized-length" => {
            // A hostile prefix beyond the frame cap, with junk behind it.
            // The server must reject it without allocating the claimed size.
            let claim =
                (varitune_serve::MAX_FRAME as u32).saturating_add(1 + pick(rng, 1 << 20) as u32);
            let mut out = claim.to_be_bytes().to_vec();
            out.extend_from_slice(b"@#%$");
            out
        }
        "invalid-utf8-payload" => {
            // Correct framing, but one payload byte is clobbered with 0xff
            // (never valid in UTF-8 at any position).
            let mut bytes = payload.as_bytes().to_vec();
            if bytes.is_empty() {
                bytes.push(b'x');
            }
            let at = pick(rng, bytes.len());
            bytes[at] = 0xff;
            let mut out = (bytes.len() as u32).to_be_bytes().to_vec();
            out.extend_from_slice(&bytes);
            out
        }
        "mid-frame-disconnect" => {
            // Correct header, partial payload, then hang up.
            let mut out = header.to_vec();
            out.extend_from_slice(&payload.as_bytes()[..pick(rng, payload.len().max(1))]);
            out
        }
        other => unreachable!("unknown frame operator {other}"),
    }
}

/// Applies the named netlist corruption operator to `nl` in place.
///
/// # Panics
///
/// Panics on an operator name outside [`NETLIST_OPS`].
pub fn corrupt_netlist(op: &str, nl: &mut Netlist, rng: &mut Xoshiro256PlusPlus) {
    match op {
        "dangling-port" => {
            let bogus = NetId(nl.net_count() as u32 + 1 + pick(rng, 1000) as u32);
            if nl.primary_outputs.is_empty() {
                nl.primary_outputs.push(bogus);
            } else {
                let k = pick(rng, nl.primary_outputs.len());
                nl.primary_outputs[k] = bogus;
            }
        }
        "comb-cycle" => {
            // Feed some combinational gate its own output.
            let comb: Vec<usize> = (0..nl.gate_count())
                .filter(|&gi| {
                    !nl.gate_kind(gi).is_sequential()
                        && !nl.gate_inputs(gi).is_empty()
                        && !nl.gate_outputs(gi).is_empty()
                })
                .collect();
            if !comb.is_empty() {
                let gi = comb[pick(rng, comb.len())];
                let out = nl.gate_outputs(gi)[0];
                nl.set_gate_input(gi, 0, out);
            }
        }
        "arity-break" => {
            // A zero-input gate of a drawn gate's kind, driving a fresh net.
            if nl.gate_count() > 0 {
                let kind = nl.gate_kind(pick(rng, nl.gate_count()));
                let z = nl.add_net("arity_break");
                nl.add_gate(kind, &[], &[z]);
            }
        }
        other => unreachable!("unknown netlist operator {other}"),
    }
}

/// The standard damaged-Liberty corpus: every operator in [`LIBERTY_OPS`]
/// applied `per_op` times to `pristine`, with the same `rng_from(seed,
/// "fault", i)` seed derivation the fault harness uses, yielding
/// `(operator, corrupted text)` pairs in deterministic order.
pub fn liberty_corpus(pristine: &str, seed: u64, per_op: usize) -> Vec<(&'static str, String)> {
    let mut corpus = Vec::with_capacity(LIBERTY_OPS.len() * per_op);
    for round in 0..per_op {
        for (k, op) in LIBERTY_OPS.iter().enumerate() {
            let i = (round * LIBERTY_OPS.len() + k) as u64;
            let mut rng = varitune_variation::rng::rng_from(seed, "fault", i);
            corpus.push((*op, corrupt_liberty(op, pristine, &mut rng)));
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use varitune_variation::rng::rng_from;

    fn pristine() -> String {
        let lib = varitune_libchar::generate_nominal(&varitune_libchar::GenerateConfig::full());
        varitune_liberty::write_library(&lib).expect("pristine library serializes")
    }

    #[test]
    fn operators_are_deterministic() {
        let text = pristine();
        for op in LIBERTY_OPS {
            let a = corrupt_liberty(op, &text, &mut rng_from(7, "fault", 3));
            let b = corrupt_liberty(op, &text, &mut rng_from(7, "fault", 3));
            assert_eq!(a, b, "operator {op} must be seed-deterministic");
        }
    }

    #[test]
    fn every_operator_changes_the_text() {
        let text = pristine();
        for op in LIBERTY_OPS {
            let damaged = corrupt_liberty(op, &text, &mut rng_from(7, "fault", 5));
            assert_ne!(damaged, text, "operator {op} left the text untouched");
        }
    }

    #[test]
    fn frame_operators_are_deterministic_and_each_breaks_the_frame() {
        let payload = "{\"kind\":\"ping\",\"id\":\"x\"}";
        for op in FRAME_OPS {
            let a = corrupt_frame(op, payload, &mut rng_from(7, "frame", 1));
            let b = corrupt_frame(op, payload, &mut rng_from(7, "frame", 1));
            assert_eq!(a, b, "operator {op} must be seed-deterministic");
            // None of them round-trips as a well-formed frame.
            let parsed = varitune_serve::read_frame(&mut &a[..]);
            assert!(
                !matches!(parsed, Ok(Some(_))),
                "operator {op} produced a readable frame"
            );
        }
        // Shape checks per operator.
        let trunc = corrupt_frame(
            "truncate-length-prefix",
            payload,
            &mut rng_from(7, "frame", 2),
        );
        assert!(trunc.len() < 4);
        let over = corrupt_frame("oversized-length", payload, &mut rng_from(7, "frame", 2));
        let claim = u32::from_be_bytes([over[0], over[1], over[2], over[3]]);
        assert!(claim as usize > varitune_serve::MAX_FRAME);
        let utf8 = corrupt_frame(
            "invalid-utf8-payload",
            payload,
            &mut rng_from(7, "frame", 2),
        );
        assert!(String::from_utf8(utf8[4..].to_vec()).is_err());
        let cut = corrupt_frame(
            "mid-frame-disconnect",
            payload,
            &mut rng_from(7, "frame", 2),
        );
        assert!(cut.len() < 4 + payload.len());
    }

    #[test]
    fn corpus_covers_all_operators_in_order() {
        let text = pristine();
        let corpus = liberty_corpus(&text, 7, 2);
        assert_eq!(corpus.len(), LIBERTY_OPS.len() * 2);
        for (k, (op, _)) in corpus.iter().enumerate() {
            assert_eq!(*op, LIBERTY_OPS[k % LIBERTY_OPS.len()]);
        }
    }
}
