//! Incremental interned timing engine over flat CSR storage.
//!
//! [`TimingGraph`] is built once per (design, library) pair and then kept
//! consistent across local edits instead of re-analyzing the whole netlist:
//!
//! * **Interning** — every cell, pin-capacitance and timing-arc reference
//!   is resolved to a dense index or `&TimingArc` at build time, so the
//!   propagation hot loop never compares strings or scans `Vec`s. LUT axes
//!   are validated once at library construction (see
//!   [`varitune_liberty::Lut::new`]), so interpolation is pure arithmetic.
//!   Interning is memoized on (cell, pin shape): a million-gate sea holds
//!   only a few hundred distinct combinations, so arc resolution costs
//!   O(distinct cells), not O(gates).
//! * **Flat CSR structure** — connectivity, pin capacitances and arcs
//!   live in shared offset/payload arrays (`in_off`/`in_net`/`in_cap`,
//!   `out_off`/`out_net`, `arc_off`/`arcs`) instead of per-gate `Vec`s,
//!   and net sinks live in a `SinkArena`. Construction at a million
//!   gates allocates a dozen arrays, not millions of boxes, and the
//!   propagation loop walks contiguous memory.
//! * **Levelization** — combinational gates are assigned longest-path
//!   levels (`level = 1 + max(level of combinational drivers)`). Gates
//!   within one level are independent, which gives both a cached
//!   evaluation order and a safe unit of parallelism.
//! * **Sharded full propagation** — [`TimingGraph::invalidate_all`] arms a
//!   dedicated full-sweep path: a counting-sort stage schedule (launch
//!   stage, then one stage per combinational level) evaluated stage by
//!   stage. Wide stages are split into fixed `SHARD_GATES`-gate
//!   structural shards dispatched through
//!   [`varitune_variation::parallel::run_shards`]; each shard evaluates
//!   against the frozen lower-stage state into a private buffer, and the
//!   orchestrator then merges shard results into the global net state in
//!   shard order (the boundary-arrival exchange). Stages narrower than
//!   `MIN_PARALLEL_WIDTH` run inline — fan-out overhead would dominate.
//! * **Dirty-cone re-propagation** — [`TimingGraph::resize_gate`],
//!   [`TimingGraph::split_fanout`] and [`TimingGraph::set_load`] mark only
//!   the directly affected nets and gates; [`TimingGraph::update`] then
//!   recomputes dirty net loads, re-evaluates dirty gates level by level,
//!   and follows a value change into a gate's fanout **only when the
//!   driving net's arrival or slew actually changed bits**. A split
//!   re-levels only the moved sinks' forward cone (levels only rise, so a
//!   worklist of raises reaches the exact longest-path levels). The cost
//!   of an edit is O(size of the changed cone), not O(netlist).
//! * **Deterministic parallelism** — the shard decomposition and the
//!   decision to fan out depend only on the workload (stage width), never
//!   on the thread count; a gate's result depends only on frozen
//!   lower-level state; and results are merged in schedule order. The
//!   outcome — values, errors, and recorded trace metrics — is therefore
//!   bit-identical for every thread count.
//!
//! Equivalence contract: after any edit sequence followed by
//! [`TimingGraph::update`], [`TimingGraph::report`] is **bit-identical**
//! to a fresh [`crate::graph::analyze`] of the edited design (loads are
//! recomputed in exactly the summation order of
//! [`MappedDesign::net_loads`], and gate evaluation replays the same
//! floating-point operations in the same order). The `tests/` tree and
//! the `sta_harness` bench binary both assert this.
//!
//! The engine owns the [`MappedDesign`] it times and keeps its netlist in
//! step with every structural edit; the `Core` copies the netlist's CSR
//! rows at build time.
//!
//! Every graph carries a `GraphId`: a build takes a fresh one and a
//! structural edit renews it. It keys the statistical state
//! [`crate::ssta::analyze_ssta`] retains between analyses of one graph, and
//! building a graph, renewing an id or dropping a graph releases that state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use varitune_liberty::{CellId, Library, TimingArc, TimingType};
use varitune_netlist::{GateKind, NetId, ValidateNetlistError};
use varitune_variation::parallel::{resolve_threads, run_shards, run_trials};

use crate::graph::{Endpoint, EndpointKind, NetTiming, StaConfig, StaError, TimingReport};
use crate::mapped::{MappedDesign, WireModel};

/// Sentinel for "no entry" in the `u32`-typed graph indices (`driver`,
/// `seq_ep`, `ep_gate`).
pub(crate) const NONE_U32: u32 = u32::MAX;

/// Gates per structural shard of a wide stage. The decomposition is a
/// function of the stage width alone, so shard boundaries — and every
/// metric recorded about them — are identical for all thread counts.
/// 256 gates is ~100 µs of evaluation: large enough to amortize dispatch,
/// small enough to load-balance a level across 8+ workers.
pub(crate) const SHARD_GATES: usize = 256;

/// Minimum stage/level width before the engine fans out (or, equivalently,
/// routes through the deterministic dispatch primitives at all). Narrow
/// levels — the overwhelming majority at paper scale — run inline: worker
/// spawn costs more than the saved evaluation below this width.
pub(crate) const MIN_PARALLEL_WIDTH: usize = 2048;

/// Per-net sink lists `(gate, input position)` in one flat arena.
///
/// Rows are laid out contiguously with explicit capacity; growing a row
/// past its capacity relocates it to the tail with doubled capacity (the
/// abandoned slots leak until the next full build — the usual slotted-arena
/// trade for O(1) amortized growth without a million row `Vec`s). Rows are
/// kept ascending by `(gate, position)`: the build fills them in gate
/// order, and the only edit that appends ([`TimingGraph::split_fanout`])
/// appends a gate with the highest index — so iteration order always
/// matches the load-accumulation order of [`MappedDesign::net_loads`].
struct SinkArena {
    off: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    flat: Vec<(u32, u32)>,
}

impl SinkArena {
    /// Exact-capacity arena with empty rows, sized from a counting pass.
    fn from_counts(counts: &[u32]) -> Self {
        let mut off = Vec::with_capacity(counts.len());
        let mut total: u64 = 0;
        for &c in counts {
            off.push(total as u32);
            total += u64::from(c);
        }
        assert!(
            total <= u64::from(u32::MAX),
            "sink arena exceeds u32 offsets"
        );
        Self {
            off,
            len: vec![0; counts.len()],
            cap: counts.to_vec(),
            flat: vec![(0, 0); total as usize],
        }
    }

    fn n_sinks(&self, ni: usize) -> usize {
        self.len[ni] as usize
    }

    fn row(&self, ni: usize) -> &[(u32, u32)] {
        let off = self.off[ni] as usize;
        &self.flat[off..off + self.len[ni] as usize]
    }

    /// One sink without borrowing the arena beyond the call (lets callers
    /// interleave reads with mutation of sibling state).
    fn get(&self, ni: usize, s: usize) -> (u32, u32) {
        self.flat[self.off[ni] as usize + s]
    }

    fn push(&mut self, ni: usize, v: (u32, u32)) {
        if self.len[ni] == self.cap[ni] {
            let new_cap = (self.cap[ni] * 2).max(4);
            let old = self.off[ni] as usize;
            let n = self.len[ni] as usize;
            let new_off = self.flat.len();
            self.flat.extend_from_within(old..old + n);
            self.flat.resize(new_off + new_cap as usize, (0, 0));
            assert!(self.flat.len() <= u32::MAX as usize, "sink arena overflow");
            self.off[ni] = new_off as u32;
            self.cap[ni] = new_cap;
        }
        let at = self.off[ni] as usize + self.len[ni] as usize;
        self.flat[at] = v;
        self.len[ni] += 1;
    }

    /// Appends a whole new row (for a freshly added net) at the tail.
    fn add_row(&mut self, vals: &[(u32, u32)]) {
        assert!(self.flat.len() <= u32::MAX as usize, "sink arena overflow");
        self.off.push(self.flat.len() as u32);
        self.len.push(vals.len() as u32);
        self.cap.push(vals.len() as u32);
        self.flat.extend_from_slice(vals);
    }

    /// Shortens a row in place (capacity is retained).
    fn truncate(&mut self, ni: usize, new_len: usize) {
        debug_assert!(new_len <= self.len[ni] as usize);
        self.len[ni] = new_len as u32;
    }
}

/// One cell resolved against a concrete gate shape: dense cell index,
/// positional input-pin capacitances, flattened timing arcs
/// (combinational: output-major `n_out × n_in`; sequential: one launch arc
/// per output), and the setup constraint arc when characterized.
struct InternedCell<'l> {
    ci: u32,
    caps: Vec<f64>,
    arcs: Vec<&'l TimingArc>,
    setup: Option<&'l TimingArc>,
}

/// Resolves a cell id against a gate shape — a bounds check plus direct
/// indexing, no name lookup — surfacing the same errors (with the same
/// gate index) the full analysis would.
fn intern_cell<'l>(
    lib: &'l Library,
    gi: usize,
    cell: CellId,
    n_in: usize,
    n_out: usize,
    seq: bool,
) -> Result<InternedCell<'l>, StaError> {
    let ci = cell.index();
    if ci >= lib.cells.len() {
        return Err(StaError::UnknownCell {
            gate: gi,
            name: format!("cell#{}", cell.0),
        });
    }
    let cell = &lib.cells[ci];
    let missing = || StaError::MissingArc {
        gate: gi,
        cell: cell.name.clone(),
    };

    // Input-pin capacitances, positionally; a missing pin contributes 0,
    // exactly like `MappedDesign::net_loads`.
    let pins: Vec<_> = cell.input_pins().collect();
    let caps: Vec<f64> = (0..n_in)
        .map(|k| pins.get(k).map_or(0.0, |p| p.capacitance))
        .collect();

    let mut arcs: Vec<&'l TimingArc> = Vec::with_capacity(if seq { n_out } else { n_out * n_in });
    let mut setup = None;
    if seq {
        for j in 0..n_out {
            let pin = cell.output_pins().nth(j).ok_or_else(missing)?;
            arcs.push(pin.timing.first().ok_or_else(missing)?);
        }
        setup = cell
            .input_pins()
            .find(|p| {
                p.timing
                    .iter()
                    .any(|a| a.timing_type == TimingType::SetupRising)
            })
            .and_then(|p| {
                p.timing
                    .iter()
                    .find(|a| a.timing_type == TimingType::SetupRising)
            });
    } else {
        if pins.len() < n_in {
            return Err(missing());
        }
        for j in 0..n_out {
            let pin = cell.output_pins().nth(j).ok_or_else(missing)?;
            for input_pin in pins.iter().take(n_in) {
                let arc = pin
                    .timing
                    .iter()
                    .find(|a| a.related_pin == input_pin.name)
                    .ok_or_else(missing)?;
                arcs.push(arc);
            }
        }
    }
    Ok(InternedCell {
        ci: ci as u32,
        caps,
        arcs,
        setup,
    })
}

/// Everything the propagation needs, with the netlist structure copied
/// into dense CSR form. Split from [`TimingGraph`] so `analyze` can run a
/// full propagation against a borrowed design without cloning it, and
/// exposed `pub(crate)` so [`crate::ssta`] can propagate canonical forms
/// over the identical structure and schedule.
pub(crate) struct Core<'l> {
    pub(crate) lib: &'l Library,
    pub(crate) config: StaConfig,
    pub(crate) threads: usize,
    wire_model: WireModel,

    // ---- interned structure (per gate, CSR) ----
    pub(crate) cell_idx: Vec<u32>,
    pub(crate) is_seq: Vec<bool>,
    /// Longest-path level per gate; 0 for sequential gates.
    pub(crate) level: Vec<u32>,
    /// Input row of gate `g`: `in_net[in_off[g]..in_off[g+1]]`; `in_cap`
    /// shares the offsets (capacitance of the cell pin behind each input,
    /// 0 when the cell declares fewer pins, matching
    /// [`MappedDesign::net_loads`]).
    pub(crate) in_off: Vec<u32>,
    pub(crate) in_net: Vec<u32>,
    in_cap: Vec<f64>,
    /// Output row of gate `g`: `out_net[out_off[g]..out_off[g+1]]`.
    pub(crate) out_off: Vec<u32>,
    pub(crate) out_net: Vec<u32>,
    /// Arc row of gate `g`: combinational rows hold `n_out × n_in` arcs
    /// output-major; sequential rows hold one launch arc per output.
    pub(crate) arc_off: Vec<u32>,
    pub(crate) arcs: Vec<&'l TimingArc>,
    /// Setup constraint arc of a sequential gate's data pin (`None` for
    /// combinational gates or uncharacterized libraries).
    setup_arc: Vec<Option<&'l TimingArc>>,
    /// Endpoint index of a sequential gate's data input ([`NONE_U32`] for
    /// combinational gates).
    seq_ep: Vec<u32>,

    // ---- interned structure (per net) ----
    /// Gate sinks per net as `(gate, input position)`, ascending — the
    /// exact accumulation order of [`MappedDesign::net_loads`].
    sinks: SinkArena,
    /// Primary-output taps per net (fanout contribution without pin cap).
    po_taps: Vec<u32>,
    /// Driving gate per net ([`NONE_U32`] for primary inputs).
    pub(crate) driver: Vec<u32>,
    /// Endpoint indices attached to each net (sparse: almost all nets have
    /// none, so per-net `Vec`s beat an arena here).
    ep_of_net: Vec<Vec<u32>>,
    /// Capturing flip-flop gate per endpoint ([`NONE_U32`] for primary
    /// outputs).
    ep_gate: Vec<u32>,

    // ---- timing state (valid as of the last `update`) ----
    pub(crate) loads: Vec<f64>,
    load_override: Vec<Option<f64>>,
    pub(crate) nets: Vec<NetTiming>,
    pub(crate) endpoints: Vec<Endpoint>,

    // ---- dirty tracking ----
    /// Armed by [`Core::invalidate_all`]: the next update takes the
    /// sharded full-sweep path instead of draining dirty lists.
    all_dirty: bool,
    dirty_gates: Vec<u32>,
    dirty_gate: Vec<bool>,
    dirty_loads: Vec<u32>,
    dirty_load: Vec<bool>,
    dirty_eps: Vec<u32>,
    dirty_ep: Vec<bool>,
    last_recomputed: usize,
}

impl<'l> Core<'l> {
    /// Checks `design` and builds its core with the initial full
    /// propagation. One cell id per gate comes first: a design whose
    /// public `cells` list drifted from its gate list is rejected before
    /// any work; then the netlist must validate.
    fn build_checked(
        design: &MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
    ) -> Result<Self, StaError> {
        let (gates, cells) = (design.netlist.gate_count(), design.cells.len());
        if gates != cells {
            return Err(StaError::InvalidParameter {
                reason: format!(
                    "design binds {cells} cell ids to {gates} gates; one per gate required"
                ),
            });
        }
        design.netlist.validate()?;
        let mut core = Self::build(design, lib, config)?;
        core.update()?;
        Ok(core)
    }

    fn build(
        design: &MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
    ) -> Result<Self, StaError> {
        let (nl, cells) = (&design.netlist, &design.cells);
        let n_gates = nl.gate_count();
        let n_nets = nl.net_count();

        let mut cell_idx: Vec<u32> = Vec::with_capacity(n_gates);
        let mut is_seq: Vec<bool> = Vec::with_capacity(n_gates);
        let mut in_off: Vec<u32> = Vec::with_capacity(n_gates + 1);
        in_off.push(0);
        let mut in_net: Vec<u32> = Vec::new();
        let mut in_cap: Vec<f64> = Vec::new();
        let mut out_off: Vec<u32> = Vec::with_capacity(n_gates + 1);
        out_off.push(0);
        let mut out_net: Vec<u32> = Vec::new();
        let mut arc_off: Vec<u32> = Vec::with_capacity(n_gates + 1);
        arc_off.push(0);
        let mut arcs: Vec<&'l TimingArc> = Vec::new();
        let mut setup_arc: Vec<Option<&'l TimingArc>> = Vec::with_capacity(n_gates);

        // Interning memoized on (cell, shape). The cache holds successes
        // only, so a failing gate always interns fresh and the error
        // carries the first failing gate index.
        let mut cache: HashMap<(usize, usize, usize, bool), InternedCell<'l>> = HashMap::new();
        debug_assert_eq!(cells.len(), n_gates, "callers check the cell count");
        for (gi, &cell) in cells.iter().enumerate() {
            let seq = nl.gate_kind(gi).is_sequential();
            let g_in = nl.gate_inputs(gi);
            let g_out = nl.gate_outputs(gi);
            let key = (cell.index(), g_in.len(), g_out.len(), seq);
            if let std::collections::hash_map::Entry::Vacant(e) = cache.entry(key) {
                let ic = intern_cell(lib, gi, cell, g_in.len(), g_out.len(), seq)?;
                e.insert(ic);
            }
            let ic = &cache[&key];
            cell_idx.push(ic.ci);
            is_seq.push(seq);
            in_net.extend(g_in.iter().map(|n| n.0));
            in_cap.extend_from_slice(&ic.caps);
            in_off.push(in_net.len() as u32);
            out_net.extend(g_out.iter().map(|n| n.0));
            out_off.push(out_net.len() as u32);
            arcs.extend_from_slice(&ic.arcs);
            arc_off.push(arcs.len() as u32);
            setup_arc.push(ic.setup);
        }
        assert!(
            in_net.len() <= u32::MAX as usize && arcs.len() <= u32::MAX as usize,
            "netlist exceeds u32 CSR offsets"
        );

        // Sinks: exact-capacity arena from a counting pass; filling in
        // gate order leaves every row ascending by (gate, position).
        let mut counts = vec![0u32; n_nets];
        for &inp in &in_net {
            counts[inp as usize] += 1;
        }
        let mut sinks = SinkArena::from_counts(&counts);
        let mut driver = vec![NONE_U32; n_nets];
        for gi in 0..n_gates {
            for (k, idx) in (in_off[gi] as usize..in_off[gi + 1] as usize).enumerate() {
                sinks.push(in_net[idx] as usize, (gi as u32, k as u32));
            }
            for idx in out_off[gi] as usize..out_off[gi + 1] as usize {
                driver[out_net[idx] as usize] = gi as u32;
            }
        }
        let mut po_taps = vec![0u32; n_nets];
        for &po in &nl.primary_outputs {
            po_taps[po.0 as usize] += 1;
        }

        // Endpoints in `analyze` order: flip-flop data inputs by gate
        // index, then primary outputs.
        let mut endpoints = Vec::new();
        let mut ep_of_net: Vec<Vec<u32>> = vec![Vec::new(); n_nets];
        let mut ep_gate: Vec<u32> = Vec::new();
        let mut seq_ep: Vec<u32> = vec![NONE_U32; n_gates];
        for gi in 0..n_gates {
            if !is_seq[gi] {
                continue;
            }
            let row = &in_net[in_off[gi] as usize..in_off[gi + 1] as usize];
            let Some(&d) = row.first() else {
                return Err(StaError::MalformedGate {
                    gate: gi,
                    reason: "sequential gate has no data input".into(),
                });
            };
            let e = endpoints.len() as u32;
            ep_of_net[d as usize].push(e);
            ep_gate.push(gi as u32);
            seq_ep[gi] = e;
            endpoints.push(Endpoint {
                net: NetId(d),
                kind: EndpointKind::FlipFlopData { gate: gi },
                arrival: f64::NEG_INFINITY,
                required: 0.0,
            });
        }
        for &po in &nl.primary_outputs {
            let e = endpoints.len() as u32;
            ep_of_net[po.0 as usize].push(e);
            ep_gate.push(NONE_U32);
            endpoints.push(Endpoint {
                net: po,
                kind: EndpointKind::PrimaryOutput,
                arrival: f64::NEG_INFINITY,
                required: 0.0,
            });
        }

        let mut nets = vec![NetTiming::unpropagated(); n_nets];
        // Launch points: primary inputs have fixed boundary timing.
        for &pi in &nl.primary_inputs {
            let t = &mut nets[pi.0 as usize];
            t.arrival = 0.0;
            t.slew = config.input_slew;
        }

        let n_eps = endpoints.len();
        let mut core = Self {
            lib,
            config: *config,
            threads: 1,
            wire_model: design.wire_model,
            cell_idx,
            is_seq,
            level: Vec::new(),
            in_off,
            in_net,
            in_cap,
            out_off,
            out_net,
            arc_off,
            arcs,
            setup_arc,
            seq_ep,
            sinks,
            po_taps,
            driver,
            ep_of_net,
            ep_gate,
            loads: vec![0.0; n_nets],
            load_override: vec![None; n_nets],
            nets,
            endpoints,
            all_dirty: false,
            dirty_gates: Vec::new(),
            dirty_gate: vec![false; n_gates],
            dirty_loads: Vec::new(),
            dirty_load: vec![false; n_nets],
            dirty_eps: Vec::new(),
            dirty_ep: vec![false; n_eps],
            last_recomputed: 0,
        };
        core.level = core.levelize()?;
        core.invalidate_all();
        varitune_trace::add("sta.graph_builds", 1);
        Ok(core)
    }

    pub(crate) fn n_gates(&self) -> usize {
        self.cell_idx.len()
    }

    pub(crate) fn gate_inputs(&self, gi: usize) -> &[u32] {
        &self.in_net[self.in_off[gi] as usize..self.in_off[gi + 1] as usize]
    }

    pub(crate) fn gate_outputs(&self, gi: usize) -> &[u32] {
        &self.out_net[self.out_off[gi] as usize..self.out_off[gi + 1] as usize]
    }

    /// Gate sinks of net `ni` as `(gate, input position)`, ascending.
    pub(crate) fn sinks(&self, ni: usize) -> &[(u32, u32)] {
        self.sinks.row(ni)
    }

    fn gate_arcs(&self, gi: usize) -> &[&'l TimingArc] {
        &self.arcs[self.arc_off[gi] as usize..self.arc_off[gi + 1] as usize]
    }

    /// Longest-path levelization over the combinational subgraph, from
    /// scratch. The netlist was validated acyclic; an inconsistency is
    /// reported as a netlist error.
    /// Runs once per build: edits keep levels exact locally (see
    /// [`Core::raise_levels`]).
    fn levelize(&self) -> Result<Vec<u32>, StaError> {
        let n = self.n_gates();
        let mut level = vec![0u32; n];
        let mut indeg = vec![0u32; n];
        for (gi, deg) in indeg.iter_mut().enumerate() {
            if self.is_seq[gi] {
                continue;
            }
            for &inp in self.gate_inputs(gi) {
                let d = self.driver[inp as usize];
                if d != NONE_U32 && !self.is_seq[d as usize] {
                    *deg += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&gi| !self.is_seq[gi] && indeg[gi] == 0)
            .collect();
        let mut processed = 0usize;
        while let Some(gi) = queue.pop() {
            processed += 1;
            for oi in self.out_off[gi] as usize..self.out_off[gi + 1] as usize {
                let out = self.out_net[oi] as usize;
                for s in 0..self.sinks.n_sinks(out) {
                    let (sg, _) = self.sinks.get(out, s);
                    let sg = sg as usize;
                    if self.is_seq[sg] {
                        continue;
                    }
                    level[sg] = level[sg].max(level[gi] + 1);
                    indeg[sg] -= 1;
                    if indeg[sg] == 0 {
                        queue.push(sg);
                    }
                }
            }
        }
        let comb_count = (0..n).filter(|&gi| !self.is_seq[gi]).count();
        if processed != comb_count {
            return Err(StaError::Netlist(
                ValidateNetlistError::CombinationalCycle {
                    net: "unknown".to_string(),
                },
            ));
        }
        Ok(level)
    }

    /// Raises levels along `gi`'s forward cone until every combinational
    /// sink sits above each of its drivers again; a sink that is already
    /// high enough ends the walk. Levels only rise here, which is exact
    /// after a split: the one driver the moved sinks lose sits below `gi`,
    /// so no level has to fall (see [`split_fanout_impl`]).
    fn raise_levels(&mut self, gi: usize) {
        let mut work = vec![gi as u32];
        while let Some(g) = work.pop() {
            let g = g as usize;
            let next = self.level[g] + 1;
            for oi in self.out_off[g] as usize..self.out_off[g + 1] as usize {
                let out = self.out_net[oi] as usize;
                for s in 0..self.sinks.n_sinks(out) {
                    let sg = self.sinks.get(out, s).0 as usize;
                    if !self.is_seq[sg] && self.level[sg] < next {
                        self.level[sg] = next;
                        work.push(sg as u32);
                    }
                }
            }
        }
    }

    fn mark_gate_dirty(&mut self, gi: usize) {
        if !self.dirty_gate[gi] {
            self.dirty_gate[gi] = true;
            self.dirty_gates.push(gi as u32);
        }
    }

    fn mark_load_dirty(&mut self, ni: usize) {
        if !self.dirty_load[ni] {
            self.dirty_load[ni] = true;
            self.dirty_loads.push(ni as u32);
        }
    }

    fn mark_ep_dirty(&mut self, e: usize) {
        if !self.dirty_ep[e] {
            self.dirty_ep[e] = true;
            self.dirty_eps.push(e as u32);
        }
    }

    /// Arms the full-sweep path: the next [`Core::update`] re-propagates
    /// the whole graph through the sharded schedule instead of draining
    /// per-item dirty lists (orders of magnitude cheaper at scale).
    fn invalidate_all(&mut self) {
        self.all_dirty = true;
    }

    /// Load of one net in the exact summation order of
    /// [`MappedDesign::net_loads`]: sink pin caps by ascending (gate,
    /// position), then the wire cap — so incremental loads are
    /// bit-identical to a fresh full computation.
    fn compute_load(&self, ni: usize) -> f64 {
        if let Some(ov) = self.load_override[ni] {
            return ov;
        }
        let mut load = 0.0f64;
        for &(g, k) in self.sinks.row(ni) {
            load += self.in_cap[self.in_off[g as usize] as usize + k as usize];
        }
        let fanout = self.sinks.n_sinks(ni) + self.po_taps[ni] as usize;
        load + self.wire_model.wire_cap(fanout)
    }

    /// Clock-to-Q launch of a sequential gate (one [`NetTiming`] per
    /// output appended to `outs`), identical arithmetic to the launch
    /// block of the full analysis.
    fn eval_seq_into(&self, gi: usize, outs: &mut Vec<NetTiming>) -> Result<(), StaError> {
        let launch = self.gate_arcs(gi);
        for (j, (&out, arc)) in self.gate_outputs(gi).iter().zip(launch).enumerate() {
            let load = self.loads[out as usize];
            let delay = arc.worst_delay(self.config.clock_slew, load)?;
            let slew = arc.worst_transition(self.config.clock_slew, load)?;
            outs.push(NetTiming {
                arrival: delay,
                slew,
                load,
                driver: Some(gi),
                out_pin: j,
                crit_input: None,
                cell_delay: delay,
                crit_input_slew: self.config.clock_slew,
            });
        }
        Ok(())
    }

    /// Worst-arrival evaluation of a combinational gate (one
    /// [`NetTiming`] per output appended to `outs`), identical arithmetic
    /// to the topological loop of the full analysis.
    fn eval_comb_into(&self, gi: usize, outs: &mut Vec<NetTiming>) -> Result<(), StaError> {
        let ins = self.gate_inputs(gi);
        let n_in = ins.len();
        let arcs = self.gate_arcs(gi);
        for (j, &out) in self.gate_outputs(gi).iter().enumerate() {
            let row = &arcs[j * n_in..(j + 1) * n_in];
            let load = self.loads[out as usize];
            let mut best: Option<NetTiming> = None;
            for (k, &inp) in ins.iter().enumerate() {
                let in_t = self.nets[inp as usize];
                if !in_t.arrival.is_finite() {
                    return Err(StaError::MalformedGate {
                        gate: gi,
                        reason: format!(
                            "input #{k} has non-finite arrival {} during propagation",
                            in_t.arrival
                        ),
                    });
                }
                let arc = row[k];
                let delay = arc.worst_delay(in_t.slew, load)?;
                let arrival = in_t.arrival + delay;
                if best.is_none_or(|b| arrival > b.arrival) {
                    let slew = arc.worst_transition(in_t.slew, load)?;
                    best = Some(NetTiming {
                        arrival,
                        slew,
                        load,
                        driver: Some(gi),
                        out_pin: j,
                        crit_input: Some(k),
                        cell_delay: delay,
                        crit_input_slew: in_t.slew,
                    });
                }
            }
            outs.push(best.ok_or_else(|| StaError::MissingArc {
                gate: gi,
                cell: self.lib.cells[self.cell_idx[gi] as usize].name.clone(),
            })?);
        }
        Ok(())
    }

    fn eval_gate_into(&self, gi: usize, outs: &mut Vec<NetTiming>) -> Result<(), StaError> {
        if self.is_seq[gi] {
            self.eval_seq_into(gi, outs)
        } else {
            self.eval_comb_into(gi, outs)
        }
    }

    fn eval_seq(&self, gi: usize) -> Result<Vec<NetTiming>, StaError> {
        let mut outs = Vec::with_capacity(self.gate_outputs(gi).len());
        self.eval_seq_into(gi, &mut outs)?;
        Ok(outs)
    }

    fn eval_comb(&self, gi: usize) -> Result<Vec<NetTiming>, StaError> {
        let mut outs = Vec::with_capacity(self.gate_outputs(gi).len());
        self.eval_comb_into(gi, &mut outs)?;
        Ok(outs)
    }

    /// Evaluates one level's dirty gates. Wide levels route through
    /// [`run_trials`] — unconditionally on width, never on the thread
    /// knob, so recorded trace metrics are thread-count-invariant; with
    /// `threads == 1` the dispatch degenerates to the serial loop.
    /// Results are in `list` order either way, so the outcome (including
    /// the first error) is schedule-independent.
    fn eval_comb_batch(&self, list: &[u32]) -> Vec<Result<Vec<NetTiming>, StaError>> {
        if list.len() >= MIN_PARALLEL_WIDTH {
            let workers = if self.threads == 1 {
                1
            } else {
                resolve_threads(self.threads)
            };
            run_trials(list.len(), workers, |i| self.eval_comb(list[i] as usize))
        } else {
            list.iter().map(|&g| self.eval_comb(g as usize)).collect()
        }
    }

    /// Writes a gate's freshly evaluated outputs and propagates dirtiness
    /// into the fanout of any output whose arrival or slew changed bits.
    fn apply_outputs(&mut self, gi: usize, outs: Vec<NetTiming>, buckets: &mut [Vec<u32>]) {
        let (o_lo, o_hi) = (self.out_off[gi] as usize, self.out_off[gi + 1] as usize);
        for (idx, nt) in (o_lo..o_hi).zip(outs) {
            let ni = self.out_net[idx] as usize;
            let old = self.nets[ni];
            self.nets[ni] = nt;
            if old.arrival.to_bits() == nt.arrival.to_bits()
                && old.slew.to_bits() == nt.slew.to_bits()
            {
                continue; // converged: the cone below is clean
            }
            for s in 0..self.sinks.n_sinks(ni) {
                let (sg, _) = self.sinks.get(ni, s);
                let sg = sg as usize;
                // Sequential sinks capture (endpoint below); their launch
                // does not depend on the data input.
                if !self.is_seq[sg] && !self.dirty_gate[sg] {
                    self.dirty_gate[sg] = true;
                    buckets[self.level[sg] as usize].push(sg as u32);
                }
            }
            for e in 0..self.ep_of_net[ni].len() {
                let e = self.ep_of_net[ni][e] as usize;
                self.mark_ep_dirty(e);
            }
        }
    }

    fn recompute_endpoint(&mut self, e: usize) {
        let net = self.endpoints[e].net.0 as usize;
        let arrival = self.nets[net].arrival;
        let required = if self.ep_gate[e] != NONE_U32 {
            let gi = self.ep_gate[e] as usize;
            let data_slew = self.nets[net].slew;
            let setup = self.setup_arc[gi]
                .and_then(|a| a.worst_delay(data_slew, self.config.clock_slew).ok())
                .unwrap_or(self.config.setup_time);
            self.config.effective_period() - setup
        } else {
            self.config.effective_period()
        };
        self.endpoints[e].arrival = arrival;
        self.endpoints[e].required = required;
    }

    /// Counting-sort stage schedule used by the full sweep (and by the
    /// statistical propagation in [`crate::ssta`]): stage 0 holds the
    /// sequential (launch) gates, stage `v + 1` combinational level `v`,
    /// gates ascending within each stage. Returns `(stage_off, schedule)`
    /// with stage `s` occupying `schedule[stage_off[s]..stage_off[s + 1]]`.
    pub(crate) fn stage_schedule(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.n_gates();
        let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
        let n_stages = max_level + 2;
        let stage_of = |gi: usize| {
            if self.is_seq[gi] {
                0
            } else {
                self.level[gi] as usize + 1
            }
        };
        let mut stage_off = vec![0u32; n_stages + 1];
        for gi in 0..n {
            stage_off[stage_of(gi) + 1] += 1;
        }
        for s in 0..n_stages {
            stage_off[s + 1] += stage_off[s];
        }
        let mut schedule = vec![0u32; n];
        let mut cursor: Vec<u32> = stage_off[..n_stages].to_vec();
        for gi in 0..n {
            let s = stage_of(gi);
            schedule[cursor[s] as usize] = gi as u32;
            cursor[s] += 1;
        }
        (stage_off, schedule)
    }

    /// Re-propagates pending changes: the sharded full sweep when
    /// [`Core::invalidate_all`] armed it, the dirty-cone path otherwise.
    fn update(&mut self) -> Result<(), StaError> {
        if self.all_dirty {
            self.update_full()
        } else {
            self.update_incremental()
        }
    }

    /// Full propagation through the counting-sort stage schedule, sharded
    /// across workers on wide stages. Bit-identical to draining an
    /// everything-dirty incremental update: loads are recomputed in
    /// ascending net order, gates evaluate against frozen lower-stage
    /// state in ascending order within each stage, and endpoints refresh
    /// ascending.
    fn update_full(&mut self) -> Result<(), StaError> {
        let tracing = varitune_trace::enabled();
        self.last_recomputed = 0;
        // The full sweep subsumes incremental dirt accumulated before the
        // invalidation; drop it so stale flags cannot leak into the next
        // incremental update.
        self.dirty_gates.clear();
        self.dirty_gate.fill(false);
        self.dirty_loads.clear();
        self.dirty_load.fill(false);
        self.dirty_eps.clear();
        self.dirty_ep.fill(false);

        // 1. Every net load, ascending (summation order per net is fixed
        //    by `compute_load`).
        for ni in 0..self.loads.len() {
            let load = self.compute_load(ni);
            self.loads[ni] = load;
            self.nets[ni].load = load;
        }

        // 2. Counting-sort stage schedule: stage 0 launches the
        //    sequential gates, stage `v + 1` is combinational level `v`.
        //    Gates are ascending within each stage.
        let (stage_off, schedule) = self.stage_schedule();
        let n_stages = stage_off.len() - 1;

        // 3. Propagate stage by stage; a stage only reads finalized
        //    lower-stage state, so each is an independent parallel unit.
        for s in 0..n_stages {
            let list = &schedule[stage_off[s] as usize..stage_off[s + 1] as usize];
            if list.is_empty() {
                continue;
            }
            if tracing && s > 0 {
                varitune_trace::observe("sta.level_width", list.len() as u64);
            }
            self.propagate_stage(list, tracing)?;
        }

        // 4. Every endpoint, ascending.
        for e in 0..self.endpoints.len() {
            self.recompute_endpoint(e);
        }

        if tracing {
            varitune_trace::add("sta.updates", 1);
            varitune_trace::add("sta.full_propagations", 1);
            varitune_trace::add("sta.gates_recomputed", self.last_recomputed as u64);
            varitune_trace::observe("sta.dirty_cone", self.last_recomputed as u64);
        }
        self.all_dirty = false;
        Ok(())
    }

    /// Evaluates one stage of the full sweep. Narrow stages run inline
    /// with a reusable scratch buffer; wide stages are cut into
    /// [`SHARD_GATES`]-gate structural shards dispatched via
    /// [`run_shards`], whose per-shard results the orchestrator merges
    /// into the global net state in shard order (the boundary-arrival
    /// exchange). Gates within a stage never read each other's outputs,
    /// so both paths produce identical bits; after an error the net state
    /// is unspecified (the caller discards the engine).
    fn propagate_stage(&mut self, list: &[u32], tracing: bool) -> Result<(), StaError> {
        if list.len() < MIN_PARALLEL_WIDTH {
            let mut scratch: Vec<NetTiming> = Vec::with_capacity(4);
            for &g in list {
                let gi = g as usize;
                scratch.clear();
                self.eval_gate_into(gi, &mut scratch)?;
                let (o_lo, o_hi) = (self.out_off[gi] as usize, self.out_off[gi + 1] as usize);
                for (idx, nt) in (o_lo..o_hi).zip(&scratch) {
                    self.nets[self.out_net[idx] as usize] = *nt;
                }
                self.last_recomputed += 1;
            }
            return Ok(());
        }

        let n_shards = list.len().div_ceil(SHARD_GATES);
        if tracing {
            // Shard metrics are structural — functions of the schedule
            // and the graph, never of the worker count.
            for s in 0..n_shards {
                let lo = s * SHARD_GATES;
                let hi = (lo + SHARD_GATES).min(list.len());
                varitune_trace::observe("sta.shard_occupancy", (hi - lo) as u64);
                let boundary: usize = list[lo..hi]
                    .iter()
                    .map(|&g| {
                        self.gate_outputs(g as usize)
                            .iter()
                            .filter(|&&ni| {
                                let ni = ni as usize;
                                self.sinks.n_sinks(ni) > 0
                                    || self.po_taps[ni] > 0
                                    || !self.ep_of_net[ni].is_empty()
                            })
                            .count()
                    })
                    .sum();
                varitune_trace::observe("sta.boundary_exchange", boundary as u64);
            }
        }

        // `threads == 1` stays serial without consulting the machine; the
        // dispatch itself still runs so traces cannot depend on the knob.
        let workers = if self.threads == 1 {
            1
        } else {
            resolve_threads(self.threads)
        };
        let results = {
            let this = &*self;
            run_shards(list.len(), SHARD_GATES, workers, |_, range| {
                let mut out: Vec<NetTiming> = Vec::with_capacity(range.len() + range.len() / 4);
                for &g in &list[range] {
                    this.eval_gate_into(g as usize, &mut out)?;
                }
                Ok::<_, StaError>(out)
            })
        };
        // Boundary-arrival exchange: merge each shard's private results
        // into the global net state, in shard order, so writes — and the
        // first error — match the serial sweep exactly.
        for (s, r) in results.into_iter().enumerate() {
            let vals = r?;
            let lo = s * SHARD_GATES;
            let hi = (lo + SHARD_GATES).min(list.len());
            let mut vi = 0usize;
            for &g in &list[lo..hi] {
                let gi = g as usize;
                for idx in self.out_off[gi] as usize..self.out_off[gi + 1] as usize {
                    self.nets[self.out_net[idx] as usize] = vals[vi];
                    vi += 1;
                }
                self.last_recomputed += 1;
            }
        }
        Ok(())
    }

    /// Re-propagates everything marked dirty; no-op when clean.
    fn update_incremental(&mut self) -> Result<(), StaError> {
        self.last_recomputed = 0;
        let tracing = varitune_trace::enabled();

        // 1. Net loads, in ascending net order (summation order is fixed
        //    per net by `compute_load`; processing order only decides
        //    which drivers get marked first).
        if !self.dirty_loads.is_empty() {
            let mut list = std::mem::take(&mut self.dirty_loads);
            list.sort_unstable();
            for &ni in &list {
                let ni = ni as usize;
                self.dirty_load[ni] = false;
                let new = self.compute_load(ni);
                if new.to_bits() != self.loads[ni].to_bits() {
                    self.loads[ni] = new;
                    self.nets[ni].load = new;
                    let d = self.driver[ni];
                    if d != NONE_U32 {
                        self.mark_gate_dirty(d as usize);
                    }
                }
            }
        }

        // 2. Bucket dirty gates by level (levels are frozen during an
        //    update: structural edits re-level before marking).
        let gate_list = std::mem::take(&mut self.dirty_gates);
        if !gate_list.is_empty() {
            let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level + 1];
            let mut seq_list: Vec<u32> = Vec::new();
            for &g in &gate_list {
                if self.is_seq[g as usize] {
                    seq_list.push(g);
                } else {
                    buckets[self.level[g as usize] as usize].push(g);
                }
            }

            // 3. Launch points.
            seq_list.sort_unstable();
            for &g in &seq_list {
                let gi = g as usize;
                let outs = self.eval_seq(gi)?;
                self.apply_outputs(gi, outs, &mut buckets);
                self.dirty_gate[gi] = false;
                self.last_recomputed += 1;
            }

            // 4. Combinational cone, level by level. Dirtiness can only
            //    propagate to strictly higher levels, so a single
            //    ascending sweep converges.
            for lvl in 0..buckets.len() {
                let mut list = std::mem::take(&mut buckets[lvl]);
                if list.is_empty() {
                    continue;
                }
                list.sort_unstable();
                if tracing {
                    // Level-parallelism occupancy: how many dirty gates
                    // each ascending sweep offers `eval_comb_batch` at
                    // once. A function of the graph and the edit sequence
                    // only, never of the thread count.
                    varitune_trace::observe("sta.level_width", list.len() as u64);
                }
                let results = self.eval_comb_batch(&list);
                for (i, r) in results.into_iter().enumerate() {
                    let gi = list[i] as usize;
                    let outs = r?;
                    self.apply_outputs(gi, outs, &mut buckets);
                    self.dirty_gate[gi] = false;
                    self.last_recomputed += 1;
                }
            }
        }

        // 5. Endpoints.
        if !self.dirty_eps.is_empty() {
            let mut eps = std::mem::take(&mut self.dirty_eps);
            eps.sort_unstable();
            for &e in &eps {
                self.dirty_ep[e as usize] = false;
                self.recompute_endpoint(e as usize);
            }
        }
        if tracing {
            varitune_trace::add("sta.updates", 1);
            varitune_trace::add("sta.gates_recomputed", self.last_recomputed as u64);
            // Dirty-cone size distribution: how local each incremental
            // edit really was.
            varitune_trace::observe("sta.dirty_cone", self.last_recomputed as u64);
        }
        Ok(())
    }

    /// Appends the CSR row of a freshly added combinational gate at
    /// `level`, which the caller computes exactly from the gate's drivers
    /// (its sinks are re-levelled by [`Core::raise_levels`]).
    fn push_gate_row(&mut self, ic: &InternedCell<'l>, level: u32, ins: &[u32], outs: &[u32]) {
        self.cell_idx.push(ic.ci);
        self.is_seq.push(false);
        self.level.push(level);
        self.in_net.extend_from_slice(ins);
        self.in_cap.extend_from_slice(&ic.caps);
        self.in_off.push(self.in_net.len() as u32);
        self.out_net.extend_from_slice(outs);
        self.out_off.push(self.out_net.len() as u32);
        self.arcs.extend_from_slice(&ic.arcs);
        self.arc_off.push(self.arcs.len() as u32);
        self.setup_arc.push(ic.setup);
        self.seq_ep.push(NONE_U32);
        self.dirty_gate.push(false);
    }
}

/// Splits the fanout of `net` behind an INV→INV pair — the engine-side
/// half of [`TimingGraph::split_fanout_id`].
fn split_fanout_impl(
    core: &mut Core<'_>,
    design: &mut MappedDesign,
    net: NetId,
    inv_cell: CellId,
) -> Result<(usize, usize), StaError> {
    // Intern before touching anything, so a cell that does not fit leaves
    // the engine unchanged. Both inverters share the cell and the shape.
    let g1 = design.netlist.gate_count();
    let ic = intern_cell(core.lib, g1, inv_cell, 1, 1, false)?;

    let ni = net.0 as usize;
    let all: Vec<(u32, u32)> = core.sinks.row(ni).to_vec();
    let moved: Vec<(u32, u32)> = all[all.len() / 2..].to_vec();

    let nl = &mut design.netlist;
    let base = nl.net_name(net).to_string();
    let mid = nl.add_net(format_args!("{base}_bufm"));
    let out = nl.add_net(format_args!("{base}_bufo"));
    for &(g, k) in &moved {
        nl.set_gate_input(g as usize, k as usize, out);
    }
    nl.add_gate(GateKind::Inv, &[net], &[mid]);
    let g2 = nl.add_gate(GateKind::Inv, &[mid], &[out]);
    design.cells.push(inv_cell);
    design.cells.push(inv_cell);

    let (mi, oi) = (mid.0 as usize, out.0 as usize);
    // Per-net rows for `mid` and `out` (in id order).
    core.sinks.add_row(&[(g2 as u32, 0)]);
    core.sinks.add_row(&moved);
    for _ in 0..2 {
        core.po_taps.push(0);
        core.driver.push(NONE_U32);
        core.ep_of_net.push(Vec::new());
        core.loads.push(0.0);
        core.load_override.push(None);
        core.nets.push(NetTiming::unpropagated());
        core.dirty_load.push(false);
    }
    core.driver[mi] = g1 as u32;
    core.driver[oi] = g2 as u32;
    core.sinks.truncate(ni, all.len() / 2);
    core.sinks.push(ni, (g1 as u32, 0));
    for &(g, k) in &moved {
        let i0 = core.in_off[g as usize] as usize;
        core.in_net[i0 + k as usize] = out.0;
    }

    // Per-gate CSR rows for the two inverters: `g1` one level above the
    // split net's driver (a primary-input or sequential driver puts it at
    // level 0), `g2` one above `g1`.
    let l1 = match core.driver[ni] {
        d if d == NONE_U32 || core.is_seq[d as usize] => 0,
        d => core.level[d as usize] + 1,
    };
    core.push_gate_row(&ic, l1, &[net.0], &[mid.0]);
    core.push_gate_row(&ic, l1 + 1, &[mid.0], &[out.0]);

    // Endpoints attached to moved flip-flop data inputs follow their net.
    for &(g, _) in &moved {
        let e = core.seq_ep[g as usize];
        if e != NONE_U32 {
            let e = e as usize;
            core.endpoints[e].net = out;
            core.ep_of_net[ni].retain(|&x| x as usize != e);
            core.ep_of_net[oi].push(e as u32);
            core.mark_ep_dirty(e);
        }
    }

    // Structure changed: re-level before marking dirt. Only the moved
    // sinks lost a driver (the split net's, which sits below `g2`) and
    // gained one (`g2`), so raising `g2`'s forward cone is exact.
    core.raise_levels(g2);
    core.mark_load_dirty(ni);
    core.mark_load_dirty(mi);
    core.mark_load_dirty(oi);
    core.mark_gate_dirty(g1);
    core.mark_gate_dirty(g2);
    for &(g, _) in &moved {
        if !core.is_seq[g as usize] {
            core.mark_gate_dirty(g as usize);
        }
    }
    Ok((g1, g2))
}

/// Source of [`GraphId`]s; never reused within a process.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(0);

/// Identity of one graph structure. Taking a fresh id releases the
/// statistical state [`crate::ssta`] retains (whichever graph it belongs
/// to); renewing or dropping an id releases the state kept for it.
pub(crate) struct GraphId(u64);

impl GraphId {
    fn new() -> Self {
        crate::ssta::release_retained(None);
        GraphId(NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// A structural edit: the graph is no longer the one the state was
    /// retained for.
    fn renew(&mut self) {
        crate::ssta::release_retained(Some(self.0));
        self.0 = NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for GraphId {
    fn drop(&mut self) {
        crate::ssta::release_retained(Some(self.0));
    }
}

/// Build-once incremental timing engine over an owned design.
///
/// Construct with [`TimingGraph::new`] — it runs a full propagation — then
/// apply local edits and call [`TimingGraph::update`];
/// queries like [`TimingGraph::report`], [`TimingGraph::load`] and
/// [`TimingGraph::net_timing`] return the state **as of the last
/// `update`** — edits are not visible in timing values until then.
pub struct TimingGraph<'l> {
    design: MappedDesign,
    core: Core<'l>,
    id: GraphId,
}

impl<'l> TimingGraph<'l> {
    /// Builds the engine and runs the initial full propagation.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] under the same conditions as
    /// [`crate::graph::analyze`]: among them
    /// [`StaError::InvalidParameter`] when `design.cells` does not hold
    /// exactly one cell id per gate.
    pub fn new(
        design: MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
    ) -> Result<Self, StaError> {
        // Before the build, so retained statistical state is freed before
        // the build allocates.
        let id = GraphId::new();
        let core = Core::build_checked(&design, lib, config)?;
        Ok(Self { design, core, id })
    }

    /// [`TimingGraph::new`] under its former name; kept only for
    /// `benchmark/`.
    pub fn new_soa(
        design: MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
    ) -> Result<Self, StaError> {
        Self::new(design, lib, config)
    }

    /// Worker threads for within-level propagation (`0` = all available
    /// cores, `1` = serial). Results are bit-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.core.threads = threads;
    }

    /// The interned CSR core — shared with [`crate::ssta`] so statistical
    /// propagation reuses the identical structure and stage schedule.
    pub(crate) fn core(&self) -> &Core<'l> {
        &self.core
    }

    /// The graph's current [`GraphId`] number.
    pub(crate) fn id(&self) -> u64 {
        self.id.0
    }

    fn check_gate(&self, gi: usize) -> Result<(), StaError> {
        let n = self.core.n_gates();
        if gi < n {
            return Ok(());
        }
        Err(StaError::InvalidParameter {
            reason: format!("gate index {gi} out of range (graph has {n} gates)"),
        })
    }

    fn check_net(&self, net: NetId) -> Result<(), StaError> {
        let n = self.core.nets.len();
        if (net.0 as usize) < n {
            return Ok(());
        }
        Err(StaError::InvalidParameter {
            reason: format!("net index {} out of range (graph has {n} nets)", net.0),
        })
    }

    /// The design in its current (edited) state.
    pub fn design(&self) -> &MappedDesign {
        &self.design
    }

    /// [`TimingGraph::design`] under its former name; kept only for
    /// `benchmark/`.
    pub fn soa_design(&self) -> Option<&MappedDesign> {
        Some(self.design())
    }

    /// Consumes the engine, returning the edited design.
    pub fn into_design(self) -> MappedDesign {
        self.design
    }

    /// The library the engine was built against.
    pub fn lib(&self) -> &'l Library {
        self.core.lib
    }

    /// The analysis configuration.
    pub fn config(&self) -> &StaConfig {
        &self.core.config
    }

    /// Number of gates (grows as buffers are inserted).
    pub fn gate_count(&self) -> usize {
        self.core.n_gates()
    }

    /// Cell name of gate `gi`, resolved through the library (ids always
    /// resolve here: they were validated when the gate was interned).
    pub fn cell_name(&self, gi: usize) -> &str {
        &self.core.lib.cells[self.core.cell_idx[gi] as usize].name
    }

    /// Cell id of gate `gi`.
    pub fn cell_id(&self, gi: usize) -> CellId {
        self.design.cells[gi]
    }

    /// Load on `net` as of the last [`TimingGraph::update`].
    pub fn load(&self, net: NetId) -> f64 {
        self.core.loads[net.0 as usize]
    }

    /// All net loads as of the last [`TimingGraph::update`].
    pub fn loads(&self) -> &[f64] {
        &self.core.loads
    }

    /// Timing of `net` as of the last [`TimingGraph::update`].
    pub fn net_timing(&self, net: NetId) -> &NetTiming {
        &self.core.nets[net.0 as usize]
    }

    /// Endpoints as of the last [`TimingGraph::update`].
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.core.endpoints
    }

    /// Worst slack as of the last [`TimingGraph::update`].
    pub fn worst_slack(&self) -> f64 {
        self.core
            .endpoints
            .iter()
            .map(Endpoint::slack)
            .fold(f64::INFINITY, f64::min)
    }

    /// Structural fanout of `net` (gate sinks + primary-output taps);
    /// reflects edits immediately.
    pub fn fanout(&self, net: NetId) -> usize {
        let ni = net.0 as usize;
        self.core.sinks.n_sinks(ni) + self.core.po_taps[ni] as usize
    }

    /// Driving gate of `net`; reflects edits immediately.
    pub fn driver(&self, net: NetId) -> Option<usize> {
        let d = self.core.driver[net.0 as usize];
        (d != NONE_U32).then_some(d as usize)
    }

    /// Input nets of gate `gi` in pin order; reflects edits immediately.
    pub fn gate_inputs(&self, gi: usize) -> impl ExactSizeIterator<Item = NetId> + '_ {
        self.core.gate_inputs(gi).iter().map(|&n| NetId(n))
    }

    /// Output nets of gate `gi` in pin order; reflects edits immediately.
    pub fn gate_outputs(&self, gi: usize) -> impl ExactSizeIterator<Item = NetId> + '_ {
        self.core.gate_outputs(gi).iter().map(|&n| NetId(n))
    }

    /// Whether gate `gi` is sequential (a flip-flop).
    pub fn is_sequential(&self, gi: usize) -> bool {
        self.core.is_seq[gi]
    }

    /// Gates re-evaluated by the last [`TimingGraph::update`] — the dirty
    /// cone size, exposed for tests and the bench harness.
    pub fn gates_recomputed_in_last_update(&self) -> usize {
        self.core.last_recomputed
    }

    /// Snapshot of the current timing state as a [`TimingReport`],
    /// bit-identical to a fresh [`crate::graph::analyze`] of
    /// [`TimingGraph::design`] when the engine is clean (no edits since
    /// the last [`TimingGraph::update`]).
    pub fn report(&self) -> TimingReport {
        TimingReport {
            config: self.core.config,
            nets: self.core.nets.clone(),
            endpoints: self.core.endpoints.clone(),
        }
    }

    /// Re-propagates the dirty cone (or runs the sharded full sweep after
    /// [`TimingGraph::invalidate_all`]); cheap no-op when nothing changed.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] if a LUT evaluation fails. The engine state is
    /// unspecified (but memory-safe) after an error; discard it.
    pub fn update(&mut self) -> Result<(), StaError> {
        self.core.update()
    }

    /// Marks the whole graph dirty so the next [`TimingGraph::update`] is
    /// a full propagation through the sharded stage schedule — used by
    /// benches to time full re-analysis.
    pub fn invalidate_all(&mut self) {
        self.core.invalidate_all();
    }

    /// Re-maps gate `gi` onto `cell_name`, dirtying its input-net loads
    /// (pin capacitances changed) and the downstream cone.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] if `gi` is out of range;
    /// [`StaError::UnknownCell`]/[`StaError::MissingArc`] if the cell does
    /// not fit. The engine is unchanged on error.
    pub fn resize_gate(&mut self, gi: usize, cell_name: &str) -> Result<(), StaError> {
        self.check_gate(gi)?;
        let id = self
            .core
            .lib
            .cell_id(cell_name)
            .ok_or_else(|| StaError::UnknownCell {
                gate: gi,
                name: cell_name.to_string(),
            })?;
        self.resize_gate_id(gi, id)
    }

    /// Id-based [`TimingGraph::resize_gate`] — the sizing-loop entry
    /// point: no name lookup, no string compare, and (because gate shape
    /// lives in the CSR) no netlist access at all.
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::resize_gate`]; an out-of-range id reports
    /// [`StaError::UnknownCell`] with a `cell#<id>` label.
    pub fn resize_gate_id(&mut self, gi: usize, cell: CellId) -> Result<(), StaError> {
        self.check_gate(gi)?;
        if self.design.cells[gi] == cell {
            return Ok(());
        }
        let n_in = self.core.gate_inputs(gi).len();
        let n_out = self.core.gate_outputs(gi).len();
        let seq = self.core.is_seq[gi];
        let ic = intern_cell(self.core.lib, gi, cell, n_in, n_out, seq)?;
        self.design.cells[gi] = cell;
        let core = &mut self.core;
        core.cell_idx[gi] = ic.ci;
        let a0 = core.arc_off[gi] as usize;
        core.arcs[a0..a0 + ic.arcs.len()].copy_from_slice(&ic.arcs);
        let i0 = core.in_off[gi] as usize;
        core.in_cap[i0..i0 + ic.caps.len()].copy_from_slice(&ic.caps);
        core.setup_arc[gi] = ic.setup;
        for k in 0..n_in {
            let inp = core.in_net[i0 + k] as usize;
            core.mark_load_dirty(inp);
        }
        core.mark_gate_dirty(gi);
        if core.seq_ep[gi] != NONE_U32 {
            // The setup constraint arc changed with the cell.
            let e = core.seq_ep[gi] as usize;
            core.mark_ep_dirty(e);
        }
        Ok(())
    }

    /// Overrides (or clears) the load seen on `net`, e.g. for boundary
    /// modeling in what-if analysis. Overridden nets ignore sink and wire
    /// capacitance until the override is cleared.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] if `net` is out of range; the engine
    /// is unchanged on error.
    pub fn set_load(&mut self, net: NetId, load: Option<f64>) -> Result<(), StaError> {
        self.check_net(net)?;
        self.core.load_override[net.0 as usize] = load;
        self.core.mark_load_dirty(net.0 as usize);
        Ok(())
    }

    /// Splits the fanout of `net` behind an INV→INV pair mapped to
    /// `inv_cell`, moving the second half of the gate sinks (by ascending
    /// gate index) onto the buffered copy — the synthesis buffering move.
    /// Returns the two new gate indices.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] if `net` is out of range;
    /// [`StaError::UnknownCell`]/[`StaError::MissingArc`] if `inv_cell`
    /// cannot be interned. The engine is unchanged on error.
    pub fn split_fanout(&mut self, net: NetId, inv_cell: &str) -> Result<(usize, usize), StaError> {
        self.check_net(net)?;
        let gate = self.core.n_gates();
        let id = self
            .core
            .lib
            .cell_id(inv_cell)
            .ok_or_else(|| StaError::UnknownCell {
                gate,
                name: inv_cell.to_string(),
            })?;
        self.split_fanout_id(net, id)
    }

    /// Id-based [`TimingGraph::split_fanout`] — no name lookup in the
    /// buffering loop.
    ///
    /// # Errors
    ///
    /// As [`TimingGraph::split_fanout`].
    pub fn split_fanout_id(
        &mut self,
        net: NetId,
        inv_cell: CellId,
    ) -> Result<(usize, usize), StaError> {
        self.check_net(net)?;
        self.id.renew();
        split_fanout_impl(&mut self.core, &mut self.design, net, inv_cell)
    }

    /// Test hook: whether the incrementally maintained levels equal a
    /// from-scratch levelization of the current structure.
    #[cfg(test)]
    fn levels_match_full_levelization(&self) -> bool {
        self.core
            .levelize()
            .is_ok_and(|full| full == self.core.level)
    }

    /// Backward required-time propagation over the interned graph,
    /// bit-identical to [`crate::graph::required_times`] on the current
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] if a LUT evaluation fails.
    pub fn required_times(&self) -> Result<Vec<f64>, StaError> {
        let core = &self.core;
        let mut req = vec![f64::INFINITY; core.nets.len()];
        for ep in &core.endpoints {
            let r = &mut req[ep.net.0 as usize];
            *r = r.min(ep.required);
        }
        // Any reverse topological order gives bit-identical results (the
        // per-net fold is a min); the combinational stages of the
        // counting-sort schedule, backwards, are one (descending level,
        // descending gate within a level).
        let (stage_off, schedule) = core.stage_schedule();
        for &g in schedule[stage_off[1] as usize..].iter().rev() {
            let gi = g as usize;
            let ins = core.gate_inputs(gi);
            let n_in = ins.len();
            let arcs = core.gate_arcs(gi);
            for (j, &out) in core.gate_outputs(gi).iter().enumerate() {
                let out_req = req[out as usize];
                if !out_req.is_finite() {
                    continue;
                }
                let load = core.nets[out as usize].load;
                for (k, &arc) in arcs[j * n_in..(j + 1) * n_in].iter().enumerate() {
                    let inp = ins[k] as usize;
                    let delay = arc.worst_delay(core.nets[inp].slew, load)?;
                    let r = &mut req[inp];
                    *r = r.min(out_req - delay);
                }
            }
        }
        Ok(req)
    }
}

/// Full analysis of a borrowed design through the same engine core —
/// the implementation behind [`crate::graph::analyze`].
pub(crate) fn analyze_via_engine(
    design: &MappedDesign,
    lib: &Library,
    config: &StaConfig,
) -> Result<TimingReport, StaError> {
    let core = Core::build_checked(design, lib, config)?;
    Ok(TimingReport {
        config: core.config,
        nets: core.nets,
        endpoints: core.endpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::analyze;
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn lib() -> Library {
        generate_nominal(&GenerateConfig::small_for_tests())
    }

    /// inv chain: a -> inv -> ... -> out, all `cell`.
    fn chain(n: usize, cell: &str, lib: &Library) -> MappedDesign {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, &[prev], &[z]);
            prev = z;
        }
        nl.mark_output(prev);
        MappedDesign::from_names(nl, &vec![cell; n], lib, WireModel::default()).unwrap()
    }

    fn assert_reports_bit_identical(a: &TimingReport, b: &TimingReport) {
        assert_eq!(a.nets.len(), b.nets.len());
        for (i, (x, y)) in a.nets.iter().zip(&b.nets).enumerate() {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits(), "net {i} arrival");
            assert_eq!(x.slew.to_bits(), y.slew.to_bits(), "net {i} slew");
            assert_eq!(x.load.to_bits(), y.load.to_bits(), "net {i} load");
            assert_eq!(x.driver, y.driver, "net {i} driver");
            assert_eq!(x.crit_input, y.crit_input, "net {i} crit_input");
            assert_eq!(
                x.cell_delay.to_bits(),
                y.cell_delay.to_bits(),
                "net {i} cell_delay"
            );
        }
        assert_eq!(a.endpoints.len(), b.endpoints.len());
        for (i, (x, y)) in a.endpoints.iter().zip(&b.endpoints).enumerate() {
            assert_eq!(x.net, y.net, "endpoint {i} net");
            assert_eq!(
                x.arrival.to_bits(),
                y.arrival.to_bits(),
                "endpoint {i} arrival"
            );
            assert_eq!(
                x.required.to_bits(),
                y.required.to_bits(),
                "endpoint {i} required"
            );
        }
    }

    #[test]
    fn fresh_engine_matches_analyze() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let d = chain(8, "INV_2", &lib);
        let full = analyze(&d, &lib, &cfg).unwrap();
        let engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }

    #[test]
    fn resize_retime_matches_fresh_analyze() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let mut engine = TimingGraph::new(chain(10, "INV_2", &lib), &lib, &cfg).unwrap();
        engine.resize_gate(4, "INV_8").unwrap();
        engine.update().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }

    #[test]
    fn resize_recomputes_only_the_dirty_cone() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        let mut engine = TimingGraph::new(chain(50, "INV_2", &lib), &lib, &cfg).unwrap();
        assert_eq!(engine.gates_recomputed_in_last_update(), 50);
        // Resizing gate 40 dirties its driver (input load changed) and
        // its downstream cone — a handful of gates, not the chain.
        engine.resize_gate(40, "INV_4").unwrap();
        engine.update().unwrap();
        let cone = engine.gates_recomputed_in_last_update();
        assert!(cone >= 2, "driver + resized gate at minimum: {cone}");
        assert!(cone <= 15, "cone should stay local: {cone}");
    }

    #[test]
    fn noop_update_recomputes_nothing() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        let mut engine = TimingGraph::new(chain(10, "INV_2", &lib), &lib, &cfg).unwrap();
        engine.update().unwrap();
        assert_eq!(engine.gates_recomputed_in_last_update(), 0);
        // Resizing to the current cell is a no-op, too.
        engine.resize_gate(3, "INV_2").unwrap();
        engine.update().unwrap();
        assert_eq!(engine.gates_recomputed_in_last_update(), 0);
    }

    #[test]
    fn split_fanout_matches_fresh_analyze() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        // One driver into 8 sinks, then split its net.
        let mut nl = Netlist::new("fan");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let mut names = vec!["INV_1".to_string()];
        for i in 0..8 {
            let z = nl.add_net(format!("z{i}"));
            nl.add_gate(GateKind::Inv, &[x], &[z]);
            nl.mark_output(z);
            names.push("INV_2".into());
        }
        let d = MappedDesign::from_names(nl, &names, &lib, WireModel::default()).unwrap();
        let mut engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        let (g1, g2) = engine.split_fanout(x, "INV_2").unwrap();
        assert_eq!((g1, g2), (9, 10));
        engine.update().unwrap();
        engine.design().netlist.validate().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }

    #[test]
    fn split_fanout_moves_flip_flop_endpoints() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        // inv -> {ff, ff, ff, ff}: splitting the inv's net moves two FF
        // data inputs (and their endpoints) onto the buffered copy.
        let mut nl = Netlist::new("fffan");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, &[a], &[x]);
        let mut names = vec!["INV_1".to_string()];
        for i in 0..4 {
            let q = nl.add_net(format!("q{i}"));
            nl.add_gate(GateKind::Dff, &[x], &[q]);
            nl.mark_output(q);
            names.push("DF_1".into());
        }
        let d = MappedDesign::from_names(nl, &names, &lib, WireModel::default()).unwrap();
        let mut engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        engine.split_fanout(x, "INV_2").unwrap();
        engine.update().unwrap();
        engine.design().netlist.validate().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }

    #[test]
    fn set_load_override_propagates_and_clears() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        let d = chain(5, "INV_2", &lib);
        let x = d.netlist.gate_outputs(1)[0];
        let mut engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        let before = engine.report();
        engine.set_load(x, Some(0.05)).unwrap();
        engine.update().unwrap();
        assert_eq!(engine.load(x).to_bits(), 0.05f64.to_bits());
        assert!(engine.worst_slack() < before.worst_slack());
        // Clearing the override restores the exact baseline state.
        engine.set_load(x, None).unwrap();
        engine.update().unwrap();
        assert_reports_bit_identical(&engine.report(), &before);
    }

    #[test]
    fn required_times_match_free_function() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let d = chain(6, "INV_2", &lib);
        let report = analyze(&d, &lib, &cfg).unwrap();
        let free = crate::graph::required_times(&d, &lib, &report).unwrap();
        let engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        let eng = engine.required_times().unwrap();
        assert_eq!(free.len(), eng.len());
        for (i, (a, b)) in free.iter().zip(&eng).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "net {i}");
        }
    }

    #[test]
    fn unknown_cell_resize_leaves_engine_intact() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let mut engine = TimingGraph::new(chain(4, "INV_2", &lib), &lib, &cfg).unwrap();
        let before = engine.report();
        assert!(matches!(
            engine.resize_gate(2, "NOPE_9"),
            Err(StaError::UnknownCell { gate: 2, .. })
        ));
        engine.update().unwrap();
        assert_reports_bit_identical(&engine.report(), &before);
    }

    /// Runs `edit` with an out-of-range index on a 4-gate chain: it must
    /// report `InvalidParameter` and leave the engine as it was.
    fn assert_rejects_out_of_range(
        edit: impl FnOnce(&mut TimingGraph<'_>) -> Result<(), StaError>,
    ) {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let mut engine = TimingGraph::new(chain(4, "INV_2", &lib), &lib, &cfg).unwrap();
        let (before, gates) = (engine.report(), engine.gate_count());
        assert!(matches!(
            edit(&mut engine),
            Err(StaError::InvalidParameter { .. })
        ));
        assert_eq!(engine.gate_count(), gates);
        engine.update().unwrap();
        assert_eq!(engine.gates_recomputed_in_last_update(), 0);
        assert_reports_bit_identical(&engine.report(), &before);
    }

    #[test]
    fn resize_gate_rejects_out_of_range_gate() {
        assert_rejects_out_of_range(|g| g.resize_gate(4, "INV_8"));
    }

    #[test]
    fn resize_gate_id_rejects_out_of_range_gate() {
        assert_rejects_out_of_range(|g| {
            let id = g.lib().cell_id("INV_8").unwrap();
            g.resize_gate_id(usize::MAX, id)
        });
    }

    #[test]
    fn set_load_rejects_out_of_range_net() {
        assert_rejects_out_of_range(|g| g.set_load(NetId(5), Some(0.01)));
    }

    #[test]
    fn split_fanout_rejects_out_of_range_net() {
        assert_rejects_out_of_range(|g| g.split_fanout(NetId(5), "INV_2").map(drop));
    }

    #[test]
    fn split_fanout_id_rejects_out_of_range_net() {
        assert_rejects_out_of_range(|g| {
            let id = g.lib().cell_id("INV_2").unwrap();
            g.split_fanout_id(NetId(u32::MAX), id).map(drop)
        });
    }

    /// One wide level: enough independent inverters to cross
    /// `MIN_PARALLEL_WIDTH` and span many `SHARD_GATES` shards.
    fn wide(n: usize, lib: &Library) -> MappedDesign {
        let mut nl = Netlist::new("wide");
        let a = nl.add_input("a");
        let mut names = Vec::new();
        for i in 0..n {
            let z = nl.add_net(format!("z{i}"));
            nl.add_gate(GateKind::Inv, &[a], &[z]);
            nl.mark_output(z);
            names.push(if i % 3 == 0 {
                "INV_1".to_string()
            } else {
                "INV_2".into()
            });
        }
        MappedDesign::from_names(nl, &names, lib, WireModel::default()).unwrap()
    }

    #[test]
    fn parallel_levels_are_bit_identical() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        // 8448 gates in one level: well past MIN_PARALLEL_WIDTH (2048),
        // 33 structural shards — the full sweep takes the run_shards
        // dispatch at every thread count.
        let d = wide(8448, &lib);
        let reference = TimingGraph::new(d.clone(), &lib, &cfg).unwrap().report();
        for threads in [2, 8] {
            let mut engine = TimingGraph::new(d.clone(), &lib, &cfg).unwrap();
            engine.set_threads(threads);
            engine.invalidate_all();
            engine.update().unwrap();
            assert_reports_bit_identical(&engine.report(), &reference);
        }
    }

    #[test]
    fn wide_incremental_updates_are_bit_identical() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(5.0);
        // Dirty every gate of the wide level through load overrides so the
        // *incremental* path (eval_comb_batch -> run_trials) crosses
        // MIN_PARALLEL_WIDTH; results must agree across thread counts.
        let d = wide(3000, &lib);
        let run = |threads: usize| {
            let mut engine = TimingGraph::new(d.clone(), &lib, &cfg).unwrap();
            engine.set_threads(threads);
            for gi in 0..engine.gate_count() {
                let out = engine.design().netlist.gate_outputs(gi)[0];
                engine.set_load(out, Some(0.031)).unwrap();
            }
            engine.update().unwrap();
            assert_eq!(engine.gates_recomputed_in_last_update(), 3000);
            engine.report()
        };
        let one = run(1);
        assert_reports_bit_identical(&one, &run(2));
        assert_reports_bit_identical(&one, &run(8));
    }

    /// The small MCU on the full library, every gate bound to the drive-1
    /// cell of its function (synthesis's initial mapping, restated here
    /// because this crate sits below the mapper).
    fn small_mcu(lib: &Library) -> MappedDesign {
        let nl = varitune_netlist::generate_mcu(&varitune_netlist::McuConfig::small_for_tests());
        let names: Vec<String> = (0..nl.gate_count())
            .map(|gi| {
                let n = nl.gate_inputs(gi).len();
                let family = match nl.gate_kind(gi) {
                    GateKind::Inv | GateKind::Buf => "INV".to_string(),
                    GateKind::And => format!("AN{n}"),
                    GateKind::Or => format!("OR{n}"),
                    GateKind::Nand => format!("ND{n}"),
                    GateKind::Nor => format!("NR{n}"),
                    GateKind::Xor => "EO2".to_string(),
                    GateKind::Xnor => "XN2".to_string(),
                    GateKind::Mux2 => "MU2".to_string(),
                    GateKind::Mux4 => "MU4".to_string(),
                    GateKind::HalfAdder => "AD1".to_string(),
                    GateKind::FullAdder => "AD2".to_string(),
                    GateKind::Dff => "DF".to_string(),
                };
                format!("{family}_1")
            })
            .collect();
        MappedDesign::from_names(nl, &names, lib, WireModel::default()).unwrap()
    }

    #[test]
    fn split_levels_match_full_levelization_through_random_edits() {
        let lib = generate_nominal(&GenerateConfig::full());
        let cfg = StaConfig::with_clock_period(6.0);
        let mut engine = TimingGraph::new(small_mcu(&lib), &lib, &cfg).unwrap();
        assert!(engine.levels_match_full_levelization());
        let inv = lib.cell_id("INV_2").unwrap();
        let mut rng = varitune_variation::Xoshiro256PlusPlus::seed_from_u64(0x5EED_1E7E);
        let mut splits = 0usize;
        let mut resizes = 0usize;
        let mut step = 0usize;
        while splits < 240 {
            step += 1;
            let pick = rng.next_u64() as usize;
            if rng.next_f64() < 0.3 {
                // Resize to another drive of the same function.
                let gi = pick % engine.gate_count();
                let name = engine.cell_name(gi);
                let family = &name[..name.rfind('_').unwrap()];
                let variants: Vec<CellId> = (0..lib.cells.len())
                    .filter(|&i| {
                        let other = &lib.cells[i].name;
                        other.rfind('_').is_some_and(|at| &other[..at] == family)
                    })
                    .map(|i| CellId(i as u32))
                    .collect();
                let to = variants[(rng.next_u64() as usize) % variants.len()];
                engine.resize_gate_id(gi, to).unwrap();
                resizes += 1;
            } else {
                // Split a random multi-sink net, driven or not: primary
                // inputs, flip-flop outputs and deep combinational nets
                // all take the same path.
                let nets = engine.core().nets.len();
                let Some(net) = (0..nets)
                    .map(|i| NetId(((pick + i) % nets) as u32))
                    .find(|&n| engine.core().sinks(n.0 as usize).len() >= 2)
                else {
                    continue;
                };
                engine.split_fanout_id(net, inv).unwrap();
                splits += 1;
                assert!(
                    engine.levels_match_full_levelization(),
                    "levels drifted after split {splits} (net {})",
                    net.0
                );
            }
            if step.is_multiple_of(3) {
                engine.update().unwrap();
                let full = analyze(engine.design(), &lib, &cfg).unwrap();
                assert_reports_bit_identical(&engine.report(), &full);
            }
        }
        engine.update().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
        assert!(resizes > 50, "exercised {resizes} resizes");
    }

    #[test]
    fn a_cell_count_that_does_not_match_the_gates_is_an_error_not_a_panic() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let d = chain(4, "INV_2", &lib);
        let mut short = d.clone();
        short.cells.pop();
        let mut long = d.clone();
        long.cells.push(long.cells[0]);
        for bad in [short, long] {
            // The fields are public, so the count can drift past the
            // constructors' asserts.
            for err in [
                analyze(&bad, &lib, &cfg).err(),
                TimingGraph::new(bad.clone(), &lib, &cfg).err(),
            ] {
                assert!(
                    matches!(err, Some(StaError::InvalidParameter { .. })),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn split_with_an_unknown_cell_changes_nothing() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let d = wide(6, &lib);
        let a = NetId(0);
        let mut engine = TimingGraph::new(d, &lib, &cfg).unwrap();
        let (gates, fanout) = (engine.gate_count(), engine.fanout(a));
        let (design, report) = (engine.design().clone(), engine.report());
        let err = engine.split_fanout_id(a, CellId(u32::MAX)).unwrap_err();
        assert!(
            matches!(&err, StaError::UnknownCell { gate, .. } if *gate == gates),
            "{err:?}"
        );
        assert_eq!(engine.gate_count(), gates);
        assert_eq!(engine.fanout(a), fanout);
        assert_eq!(engine.design(), &design);
        assert_eq!(engine.report(), report);
        // The engine is still consistent: a good split goes through.
        let inv = lib.cell_id("INV_2").unwrap();
        engine.split_fanout_id(a, inv).unwrap();
        engine.update().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }
}
