//! Incremental interned timing engine over flat CSR storage.
//!
//! [`TimingGraph`] is built once per (design, library) pair and then kept
//! consistent across local edits instead of re-analyzing the whole netlist:
//!
//! * **Interning** — every cell, pin capacitance and timing arc is
//!   resolved to a dense index at build time, so the propagation hot loop
//!   never compares strings or scans `Vec`s. Each distinct timing arc is
//!   packed once into the graph's `ArcArena`: its tables' values in one
//!   row-major block, its axes pooled by value. The CSR arc rows hold
//!   `u32` arena ids. A gate evaluation brackets each output load once per
//!   output and each input slew once per arc, and reads every table on an
//!   already-bracketed axis through that bracket: the bits and errors of
//!   interpolating the library's tables one by one (see
//!   [`varitune_liberty::Bracket`]).
//!   Interning is memoized on (cell, pin shape) for the graph's lifetime:
//!   a million-gate sea holds only a few hundred distinct combinations, so
//!   arc resolution costs O(distinct cells), not O(gates), and a resize or
//!   split to a combination seen before is a lookup.
//! * **One copy of the design** — gate pins, kinds, cells and the wire
//!   model are read from the owned [`MappedDesign`], whose netlist is
//!   already flat CSR. The graph stores only what it derives: pin
//!   capacitances (`in_cap`, by the netlist's own pin numbering, see
//!   [`varitune_netlist::Netlist::first_input_pin`]) and arc rows
//!   (`arc_off`/`arcs`) in shared offset/payload arrays instead of
//!   per-gate `Vec`s, net sinks in a `SinkArena`, drivers, primary-output
//!   taps, levels, setup arcs and endpoints. Construction at a million
//!   gates allocates a dozen arrays, not millions of boxes, and the
//!   propagation loop walks contiguous memory.
//! * **Levelization** — combinational gates are assigned longest-path
//!   levels (`level = 1 + max(level of combinational drivers)`) in one
//!   pass over the topological order that
//!   [`varitune_netlist::Netlist::comb_order`] returns while validating
//!   the design. Gates within one level are independent, which gives both
//!   an evaluation order and a safe unit of parallelism.
//! * **One dirty-stage sweep** — [`TimingGraph::resize_gate_id`],
//!   [`TimingGraph::split_fanout_id`] and [`TimingGraph::set_load`] mark only
//!   the directly affected nets and gates, and
//!   [`TimingGraph::invalidate_all`] (run by every build) marks all of
//!   them. [`TimingGraph::update`] then recomputes dirty net loads,
//!   re-evaluates dirty gates stage by stage (stage 0 the flip-flops'
//!   launch, stage `v + 1` combinational level `v`) and refreshes dirty
//!   endpoints, following a value change into a gate's fanout **only when
//!   the driving net's arrival or slew actually changed bits**.
//!   [`TimingGraph::update_loads`] runs the first of those steps alone: a
//!   caller that reads only loads between edits refreshes them without
//!   re-timing, and the next `update` propagates every edit at once. A stage
//!   under `MIN_PARALLEL_WIDTH` gates runs inline; a wider one is cut into
//!   fixed `SHARD_GATES`-gate structural shards, which more than one
//!   worker evaluates through [`varitune_variation::parallel::run_shards`]
//!   against the frozen lower-stage state and the sweep then commits in
//!   shard order. A split re-levels only the moved sinks' forward cone
//!   (levels only rise, so a worklist of raises reaches the exact
//!   longest-path levels). The cost of an edit is O(size of the changed
//!   cone), not O(netlist).
//! * **Deterministic parallelism** — the shard decomposition and the
//!   decision to fan out depend only on the workload (stage width), never
//!   on the thread count; a gate's result depends only on frozen
//!   lower-level state; and results are merged in schedule order. The
//!   outcome — values, errors, and recorded trace metrics — is therefore
//!   bit-identical for every thread count.
//! * **Stored arc delays** — each gate evaluation keeps the delay it
//!   computed for every arc slot in a column parallel to `arcs`, so
//!   [`TimingGraph::required_times`] is a backward min over those delays
//!   instead of a second interpolation of every arc. A delay's inputs are
//!   its arc, input slew and output load, and a change to any of them
//!   dirties the gate, so after an update the column holds the bits a
//!   fresh evaluation would compute.
//!
//! Equivalence contract: after any edit sequence followed by
//! [`TimingGraph::update`], [`TimingGraph::report`] is **bit-identical**
//! to a fresh [`crate::graph::analyze`] of the edited design (loads are
//! recomputed in exactly the summation order of
//! [`MappedDesign::net_loads`], and gate evaluation replays the same
//! floating-point operations in the same order), however the edits were
//! batched and wherever [`TimingGraph::update_loads`] ran between them.
//! The `tests/` tree and the `sta_harness` bench binary both assert this.
//!
//! A resize rewrites the design's cell entry and a split edits its
//! netlist (through [`varitune_netlist::Netlist::set_gate_input`] and
//! [`varitune_netlist::Netlist::add_gate`]); each then updates the derived
//! indexes, so no edit writes two copies of one fact.
//!
//! Every graph carries a `GraphId`: a build (including the one behind
//! [`crate::graph::analyze`]) takes a fresh one and a structural edit
//! renews it. It keys the statistical state
//! [`crate::ssta::analyze_ssta`] retains between analyses of one graph, and
//! building a graph, renewing an id or dropping a graph releases that state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use varitune_liberty::{CellId, Library, TimingType};
use varitune_netlist::{GateKind, NetId};
use varitune_variation::parallel::{resolve_threads, run_shards};

use crate::arcs::{ArcArena, Probe};
use crate::graph::{
    constraint_arc, Endpoint, EndpointKind, GateArcs, NetTiming, StaConfig, StaError, TimingReport,
};
use crate::mapped::MappedDesign;

/// Sentinel for "no entry" in the `u32`-typed graph indices (`driver`,
/// `seq_ep`, `ep_gate`).
pub(crate) const NONE_U32: u32 = u32::MAX;

/// Gates per structural shard of a wide stage. The decomposition is a
/// function of the stage width alone, so shard boundaries — and every
/// metric recorded about them — are identical for all thread counts.
/// 256 gates is ~100 µs of evaluation: large enough to amortize dispatch,
/// small enough to load-balance a level across 8+ workers.
const SHARD_GATES: usize = 256;

/// Minimum stage/level width before the engine fans out (or, equivalently,
/// routes through the deterministic dispatch primitives at all). Narrow
/// levels — the overwhelming majority at paper scale — run inline: worker
/// spawn costs more than the saved evaluation below this width.
const MIN_PARALLEL_WIDTH: usize = 2048;

/// Per-net sink lists `(gate, input position)` in one flat arena.
///
/// Rows are laid out contiguously with explicit capacity; growing a row
/// past its capacity relocates it to the tail with doubled capacity (the
/// abandoned slots leak until the next full build — the usual slotted-arena
/// trade for O(1) amortized growth without a million row `Vec`s). Rows are
/// kept ascending by `(gate, position)`: the build fills them in gate
/// order, and the only edit that appends ([`TimingGraph::split_fanout_id`])
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

/// A cell bound to a gate shape: the key interning is memoized on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    cell: CellId,
    n_in: usize,
    n_out: usize,
    seq: bool,
}

/// One cell resolved against a concrete gate shape: positional input-pin
/// capacitances, the arena ids of its timing arcs (combinational:
/// output-major `n_out × n_in`; sequential: one launch arc per output),
/// and of the setup constraint arc when characterized ([`NONE_U32`]
/// otherwise).
struct InternedCell {
    caps: Vec<f64>,
    arcs: Vec<u32>,
    setup: u32,
}

/// Resolves a cell id against a gate shape — a bounds check plus direct
/// indexing, no name lookup — surfacing the same errors (with the same
/// gate index) the full analysis would, then packs its arcs into `arena`.
/// A table whose body does not fit its axes is
/// [`varitune_liberty::InterpolateError::ShapeMismatch`], raised only
/// once every arc has resolved.
fn intern_cell<'l>(
    lib: &'l Library,
    arena: &mut ArcArena<'l>,
    gi: usize,
    shape: Shape,
) -> Result<InternedCell, StaError> {
    let Shape {
        cell,
        n_in,
        n_out,
        seq,
    } = shape;
    let ci = cell.index();
    if ci >= lib.cells.len() {
        return Err(StaError::UnknownCell {
            gate: gi,
            name: format!("cell#{}", cell.0),
        });
    }
    let cell = &lib.cells[ci];

    // Input-pin capacitances, positionally; a missing pin contributes 0,
    // exactly like `MappedDesign::net_loads`.
    let pins: Vec<_> = cell.input_pins().collect();
    let caps: Vec<f64> = (0..n_in)
        .map(|k| pins.get(k).map_or(0.0, |p| p.capacitance))
        .collect();

    let arcs = GateArcs::new(gi, cell).all(n_in, n_out, seq)?;
    let setup = if seq {
        constraint_arc(cell, TimingType::SetupRising)
    } else {
        None
    };
    Ok(InternedCell {
        caps,
        arcs: arcs
            .into_iter()
            .map(|a| arena.intern(a))
            .collect::<Result<_, _>>()?,
        setup: setup.map_or(Ok(NONE_U32), |a| arena.intern(a))?,
    })
}

/// [`intern_cell`] through the graph's memo: a shape interned before is a
/// lookup. Failures are not memoized, so an error always names the gate
/// `gi` that hit it.
fn intern<'m, 'l>(
    memo: &'m mut HashMap<Shape, InternedCell>,
    arena: &mut ArcArena<'l>,
    lib: &'l Library,
    gi: usize,
    shape: Shape,
) -> Result<&'m InternedCell, StaError> {
    Ok(match memo.entry(shape) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(intern_cell(lib, arena, gi, shape)?),
    })
}

/// A stage's evaluation, before [`TimingGraph::commit`] writes it: the
/// gates' output timings in gate and pin order, and beside them their arc
/// delays in gate and arc-row order.
#[derive(Default)]
struct StageOut {
    nets: Vec<NetTiming>,
    delays: Vec<f64>,
}

/// Puts `i` on a dirty list once: `flags[i]` records that it is there.
fn mark(list: &mut Vec<u32>, flags: &mut [bool], i: usize) {
    if !flags[i] {
        flags[i] = true;
        list.push(i as u32);
    }
}

/// Evaluates one propagation stage and commits it — the stage evaluator
/// of both the deterministic sweep ([`TimingGraph::update`]) and the
/// statistical one ([`crate::ssta`]).
///
/// `eval` evaluates a run of `list`'s gates against the frozen `state`
/// into a scratch buffer; `commit` writes that buffer back into `state`,
/// in list order, and empties it. Gates of one stage never read each
/// other's outputs, so evaluating a whole run before committing it gives
/// the same bits as gate-by-gate.
///
/// What runs depends on the stage's width alone. Under
/// [`MIN_PARALLEL_WIDTH`] gates the stage evaluates inline into `scratch`.
/// A wider stage is cut into [`SHARD_GATES`]-gate shards by
/// [`run_shards`], whose counters are therefore recorded at every thread
/// count: one worker evaluates and commits shard after shard in
/// `scratch`, more workers evaluate each shard into its own buffer and
/// the shards are then committed in shard order. The first error, in
/// list order, is returned; `state` is unspecified after one.
pub(crate) fn run_stage<S, B>(
    state: &mut S,
    list: &[u32],
    threads: usize,
    scratch: &mut B,
    eval: impl Fn(&S, &[u32], &mut B) -> Result<(), StaError> + Sync,
    mut commit: impl FnMut(&mut S, &[u32], &mut B),
) -> Result<(), StaError>
where
    S: Sync,
    B: Default + Send,
{
    if list.len() < MIN_PARALLEL_WIDTH {
        eval(state, list, scratch)?;
        commit(state, list, scratch);
        return Ok(());
    }
    if resolve_threads(threads) == 1 {
        for range in run_shards(list.len(), SHARD_GATES, 1, |_, range| range) {
            eval(state, &list[range.clone()], scratch)?;
            commit(state, &list[range], scratch);
        }
        return Ok(());
    }
    let frozen = &*state;
    let shards = run_shards(list.len(), SHARD_GATES, threads, |_, range| {
        let mut out = B::default();
        eval(frozen, &list[range], &mut out).map(|()| out)
    });
    for (shard, out) in list.chunks(SHARD_GATES).zip(shards) {
        commit(state, shard, &mut out?);
    }
    Ok(())
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
/// queries like [`TimingGraph::report`], [`TimingGraph::net_timing`] and
/// [`TimingGraph::required_times`] return the state **as of the last
/// `update`** — edits are not visible in timing values until then.
/// [`TimingGraph::update_loads`] refreshes [`TimingGraph::load`] and
/// [`TimingGraph::loads`] alone, for a caller that reads only loads
/// between edits; structural queries ([`TimingGraph::fanout`],
/// [`TimingGraph::driver`], gate pins) reflect edits immediately.
///
/// The graph reads gate pins, kinds, cells and the wire model from the
/// [`MappedDesign`] it owns and stores only what it derives from them; its
/// fields are `pub(crate)` where [`crate::ssta`] propagates canonical forms
/// over the identical structure and schedule.
pub struct TimingGraph<'l> {
    /// The design being timed; every edit writes it in place, once.
    design: MappedDesign,
    pub(crate) lib: &'l Library,
    pub(crate) config: StaConfig,
    pub(crate) threads: usize,
    id: GraphId,

    // ---- derived per gate ----
    /// Longest-path level per gate; 0 for sequential gates.
    level: Vec<u32>,
    /// Capacitance of the cell pin behind each gate input, by the
    /// netlist's pin numbering (gate `g`'s pin `k` is
    /// `first_input_pin(g) + k`); 0 when the cell declares fewer pins,
    /// matching [`MappedDesign::net_loads`].
    in_cap: Vec<f64>,
    /// Arc row of gate `g`, as [`ArcArena`] ids: combinational rows hold
    /// `n_out × n_in` arcs output-major; sequential rows hold one launch
    /// arc per output.
    pub(crate) arc_off: Vec<u32>,
    pub(crate) arcs: Vec<u32>,
    /// Setup constraint arc of a sequential gate's data pin ([`NONE_U32`]
    /// for combinational gates or uncharacterized libraries).
    setup_arc: Vec<u32>,
    /// Endpoint index of a sequential gate's data input ([`NONE_U32`] for
    /// combinational gates).
    seq_ep: Vec<u32>,

    /// Every arc the graph evaluates, packed once.
    pub(crate) arena: ArcArena<'l>,
    /// Interned cells by shape, kept for the graph's lifetime.
    memo: HashMap<Shape, InternedCell>,

    // ---- derived per net ----
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
    /// Delay of each arc slot (parallel to `arcs`) as its gate's last
    /// evaluation computed it: clock-to-Q for a launch arc, the delay at
    /// the input's slew and the output's load for a combinational one.
    /// NaN until the gate is first evaluated.
    delays: Vec<f64>,

    // ---- dirty tracking ----
    /// Set by [`TimingGraph::invalidate_all`]: the next update counts as a
    /// full propagation in the trace.
    all_dirty: bool,
    dirty_gates: Vec<u32>,
    dirty_gate: Vec<bool>,
    dirty_loads: Vec<u32>,
    dirty_load: Vec<bool>,
    dirty_eps: Vec<u32>,
    dirty_ep: Vec<bool>,
    last_recomputed: usize,
}

impl<'l> TimingGraph<'l> {
    /// Builds the engine and runs the initial full propagation.
    ///
    /// The configuration is checked first, then that `design.cells` holds
    /// one cell id per gate and that `design` was mapped on a library with
    /// `lib`'s cell list; then the netlist must validate, and the
    /// topological order its validation returns levels the gates.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] under the same conditions as
    /// [`crate::graph::analyze`]: among them
    /// [`StaError::InvalidParameter`] when a [`StaConfig`] field is NaN or
    /// `design.cells` does not hold exactly one cell id per gate, and
    /// [`StaError::MismatchedInput`] when `design` was mapped on a library
    /// with another cell list.
    pub fn new(
        design: MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
    ) -> Result<Self, StaError> {
        // Before the build, so retained statistical state is freed before
        // the build allocates.
        let id = GraphId::new();
        config.check()?;
        let (gates, cells) = (design.netlist.gate_count(), design.cells.len());
        if gates != cells {
            return Err(StaError::InvalidParameter {
                reason: format!(
                    "design binds {cells} cell ids to {gates} gates; one per gate required"
                ),
            });
        }
        design.check_library(lib)?;
        let order = design.netlist.comb_order()?;
        let mut graph = Self::build(design, lib, config, id, &order)?;
        graph.update()?;
        Ok(graph)
    }

    fn build(
        design: MappedDesign,
        lib: &'l Library,
        config: &StaConfig,
        id: GraphId,
        comb_order: &[usize],
    ) -> Result<Self, StaError> {
        let nl = &design.netlist;
        let n_gates = nl.gate_count();
        let n_nets = nl.net_count();

        let mut in_cap: Vec<f64> = Vec::new();
        let mut arc_off: Vec<u32> = Vec::with_capacity(n_gates + 1);
        arc_off.push(0);
        let mut arcs: Vec<u32> = Vec::new();
        let mut setup_arc: Vec<u32> = Vec::with_capacity(n_gates);

        // Interning memoized on (cell, shape); a failing gate's error
        // carries the first failing gate index.
        let mut arena = ArcArena::default();
        let mut memo = HashMap::new();
        for (gi, &cell) in design.cells.iter().enumerate() {
            let shape = Shape {
                cell,
                n_in: nl.gate_inputs(gi).len(),
                n_out: nl.gate_outputs(gi).len(),
                seq: nl.gate_kind(gi).is_sequential(),
            };
            let ic = intern(&mut memo, &mut arena, lib, gi, shape)?;
            in_cap.extend_from_slice(&ic.caps);
            arcs.extend_from_slice(&ic.arcs);
            arc_off.push(arcs.len() as u32);
            setup_arc.push(ic.setup);
        }
        assert!(
            arcs.len() <= u32::MAX as usize,
            "netlist exceeds u32 arc offsets"
        );

        // Sinks: exact-capacity arena from a counting pass; filling in
        // gate order leaves every row ascending by (gate, position).
        let mut counts = vec![0u32; n_nets];
        for gi in 0..n_gates {
            for &inp in nl.gate_inputs(gi) {
                counts[inp.0 as usize] += 1;
            }
        }
        let mut sinks = SinkArena::from_counts(&counts);
        let mut driver = vec![NONE_U32; n_nets];
        for gi in 0..n_gates {
            for (k, &inp) in nl.gate_inputs(gi).iter().enumerate() {
                sinks.push(inp.0 as usize, (gi as u32, k as u32));
            }
            for &out in nl.gate_outputs(gi) {
                driver[out.0 as usize] = gi as u32;
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
        for (gi, slot) in seq_ep.iter_mut().enumerate() {
            if !nl.gate_kind(gi).is_sequential() {
                continue;
            }
            let Some(&d) = nl.gate_inputs(gi).first() else {
                return Err(StaError::MalformedGate {
                    gate: gi,
                    reason: "sequential gate has no data input".into(),
                });
            };
            let e = endpoints.len() as u32;
            ep_of_net[d.0 as usize].push(e);
            ep_gate.push(gi as u32);
            *slot = e;
            endpoints.push(Endpoint {
                net: d,
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

        let (n_eps, n_arcs) = (endpoints.len(), arcs.len());
        let mut graph = Self {
            design,
            lib,
            config: *config,
            threads: 1,
            id,
            level: Vec::new(),
            in_cap,
            arc_off,
            arcs,
            setup_arc,
            seq_ep,
            arena,
            memo,
            sinks,
            po_taps,
            driver,
            ep_of_net,
            ep_gate,
            loads: vec![0.0; n_nets],
            load_override: vec![None; n_nets],
            nets,
            endpoints,
            delays: vec![f64::NAN; n_arcs],
            all_dirty: false,
            dirty_gates: Vec::new(),
            dirty_gate: vec![false; n_gates],
            dirty_loads: Vec::new(),
            dirty_load: vec![false; n_nets],
            dirty_eps: Vec::new(),
            dirty_ep: vec![false; n_eps],
            last_recomputed: 0,
        };
        graph.level = graph.levels(comb_order);
        graph.invalidate_all();
        varitune_trace::add("sta.graph_builds", 1);
        Ok(graph)
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

    /// The timing state as a [`TimingReport`], without copying it.
    pub(crate) fn into_report(self) -> TimingReport {
        TimingReport {
            config: self.config,
            nets: self.nets,
            endpoints: self.endpoints,
        }
    }

    /// Worker threads for within-level propagation (`0` = all available
    /// cores, `1` = serial). Results are bit-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The graph's current [`GraphId`] number.
    pub(crate) fn id(&self) -> u64 {
        self.id.0
    }

    fn check_gate(&self, gi: usize) -> Result<(), StaError> {
        let n = self.gate_count();
        if gi < n {
            return Ok(());
        }
        Err(StaError::InvalidParameter {
            reason: format!("gate index {gi} out of range (graph has {n} gates)"),
        })
    }

    fn check_net(&self, net: NetId) -> Result<(), StaError> {
        let n = self.nets.len();
        if (net.0 as usize) < n {
            return Ok(());
        }
        Err(StaError::InvalidParameter {
            reason: format!("net index {} out of range (graph has {n} nets)", net.0),
        })
    }

    /// Gate sinks of net `ni` as `(gate, input position)`, ascending.
    pub(crate) fn sinks(&self, ni: usize) -> &[(u32, u32)] {
        self.sinks.row(ni)
    }

    /// Arena ids of gate `gi`'s arc row.
    pub(crate) fn gate_arcs(&self, gi: usize) -> &[u32] {
        &self.arcs[self.arc_row(gi)]
    }

    /// Slots of gate `gi`'s arc row in `arcs` and `delays`.
    fn arc_row(&self, gi: usize) -> std::ops::Range<usize> {
        self.arc_off[gi] as usize..self.arc_off[gi + 1] as usize
    }

    /// Longest-path levels in one pass over `comb_order`, a topological
    /// order of the combinational gates: a gate sits one above its
    /// highest combinational driver, at 0 without one; sequential gates
    /// stay at 0. Longest paths do not depend on which order is walked.
    /// Runs once per build: edits keep levels exact locally (see
    /// [`TimingGraph::raise_levels`]).
    fn levels(&self, comb_order: &[usize]) -> Vec<u32> {
        let nl = &self.design.netlist;
        let mut level = vec![0u32; nl.gate_count()];
        for &gi in comb_order {
            level[gi] = nl
                .gate_inputs(gi)
                .iter()
                .map(|inp| self.driver[inp.0 as usize])
                .filter(|&d| d != NONE_U32 && !nl.gate_kind(d as usize).is_sequential())
                .map(|d| level[d as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// Raises levels along `gi`'s forward cone until every combinational
    /// sink sits above each of its drivers again; a sink that is already
    /// high enough ends the walk. Levels only rise here, which is exact
    /// after a split: the one driver the moved sinks lose sits below `gi`,
    /// so no level has to fall (see [`TimingGraph::split_fanout_impl`]).
    fn raise_levels(&mut self, gi: usize) {
        let nl = &self.design.netlist;
        let mut work = vec![gi as u32];
        while let Some(g) = work.pop() {
            let g = g as usize;
            let next = self.level[g] + 1;
            for &out in nl.gate_outputs(g) {
                for &(sg, _) in self.sinks.row(out.0 as usize) {
                    let sg = sg as usize;
                    if !nl.gate_kind(sg).is_sequential() && self.level[sg] < next {
                        self.level[sg] = next;
                        work.push(sg as u32);
                    }
                }
            }
        }
    }

    fn mark_gate_dirty(&mut self, gi: usize) {
        mark(&mut self.dirty_gates, &mut self.dirty_gate, gi);
    }

    fn mark_load_dirty(&mut self, ni: usize) {
        mark(&mut self.dirty_loads, &mut self.dirty_load, ni);
    }

    fn mark_ep_dirty(&mut self, e: usize) {
        mark(&mut self.dirty_eps, &mut self.dirty_ep, e);
    }

    /// Marks every load, gate and endpoint dirty, in ascending order, so
    /// the next [`TimingGraph::update`] re-propagates the whole graph: the
    /// same sweep as after an edit, with nothing left clean. Every build
    /// runs it; benches use it to time full re-analysis.
    pub fn invalidate_all(&mut self) {
        self.all_dirty = true;
        let all = |list: &mut Vec<u32>, flags: &mut Vec<bool>| {
            list.clear();
            list.extend(0..flags.len() as u32);
            flags.fill(true);
        };
        all(&mut self.dirty_loads, &mut self.dirty_load);
        all(&mut self.dirty_gates, &mut self.dirty_gate);
        all(&mut self.dirty_eps, &mut self.dirty_ep);
    }

    /// Load of one net in the exact summation order of
    /// [`MappedDesign::net_loads`]: sink pin caps by ascending (gate,
    /// position), then the wire cap — so incremental loads are
    /// bit-identical to a fresh full computation.
    fn compute_load(&self, ni: usize) -> f64 {
        if let Some(ov) = self.load_override[ni] {
            return ov;
        }
        let nl = &self.design.netlist;
        let mut load = 0.0f64;
        for &(g, k) in self.sinks.row(ni) {
            load += self.in_cap[nl.first_input_pin(g as usize) + k as usize];
        }
        let fanout = self.sinks.n_sinks(ni) + self.po_taps[ni] as usize;
        load + self.design.wire_model.wire_cap(fanout)
    }

    /// Clock-to-Q launch of a sequential gate (one [`NetTiming`] and one
    /// delay per output appended to `out`), identical arithmetic to the
    /// launch block of the full analysis.
    fn eval_seq_into(&self, gi: usize, out: &mut StageOut) -> Result<(), StaError> {
        let launch = self.gate_arcs(gi);
        let mut clock = Probe::new(self.config.clock_slew);
        let outs = self.design.netlist.gate_outputs(gi);
        for (j, (&net, &arc)) in outs.iter().zip(launch).enumerate() {
            let load = self.loads[net.0 as usize];
            let mut at_load = Probe::new(load);
            let delay = self.arena.delay(arc, &mut clock, &mut at_load)?;
            let slew = self.arena.transition(arc, &mut clock, &mut at_load)?;
            out.delays.push(delay);
            out.nets.push(NetTiming {
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
    /// [`NetTiming`] per output and its arc row's delays appended to
    /// `out`), identical arithmetic to the topological loop of the full
    /// analysis.
    fn eval_comb_into(&self, gi: usize, out: &mut StageOut) -> Result<(), StaError> {
        let nl = &self.design.netlist;
        let ins = nl.gate_inputs(gi);
        let n_in = ins.len();
        let arcs = self.gate_arcs(gi);
        for (j, &net) in nl.gate_outputs(gi).iter().enumerate() {
            let row = &arcs[j * n_in..(j + 1) * n_in];
            let load = self.loads[net.0 as usize];
            let mut at_load = Probe::new(load);
            let mut best: Option<NetTiming> = None;
            for (k, &inp) in ins.iter().enumerate() {
                let in_t = self.nets[inp.0 as usize];
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
                let mut at_slew = Probe::new(in_t.slew);
                let delay = self.arena.delay(arc, &mut at_slew, &mut at_load)?;
                out.delays.push(delay);
                let arrival = in_t.arrival + delay;
                if best.is_none_or(|b| arrival > b.arrival) {
                    let slew = self.arena.transition(arc, &mut at_slew, &mut at_load)?;
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
            out.nets.push(best.ok_or_else(|| StaError::MissingArc {
                gate: gi,
                cell: self.cell_name(gi).to_string(),
            })?);
        }
        Ok(())
    }

    fn eval_gate_into(&self, gi: usize, out: &mut StageOut) -> Result<(), StaError> {
        if self.is_sequential(gi) {
            self.eval_seq_into(gi, out)
        } else {
            self.eval_comb_into(gi, out)
        }
    }

    /// Evaluates `list`'s gates, appending their outputs to `out` in gate
    /// and pin order and their arc delays in gate and arc-row order.
    fn eval_gates(&self, list: &[u32], out: &mut StageOut) -> Result<(), StaError> {
        list.iter()
            .try_for_each(|&g| self.eval_gate_into(g as usize, out))
    }

    /// Writes what [`TimingGraph::eval_gates`] left in `out` for `list`
    /// and empties `out`. Each gate's arc delays replace its row of the
    /// delay column. An output whose arrival or slew changed bits dirties
    /// its combinational sinks, each into its stage's list, and its
    /// endpoints; an unchanged one leaves the cone below it clean.
    fn commit(&mut self, list: &[u32], out: &mut StageOut, stages: &mut [Vec<u32>]) {
        let (mut vi, mut di) = (0usize, 0usize);
        for &g in list {
            let gi = g as usize;
            let row = self.arc_row(gi);
            let next = di + row.len();
            self.delays[row].copy_from_slice(&out.delays[di..next]);
            di = next;
            let nl = &self.design.netlist;
            for &net in nl.gate_outputs(gi) {
                let ni = net.0 as usize;
                let nt = out.nets[vi];
                vi += 1;
                let old = std::mem::replace(&mut self.nets[ni], nt);
                if old.arrival.to_bits() == nt.arrival.to_bits()
                    && old.slew.to_bits() == nt.slew.to_bits()
                {
                    continue;
                }
                for &(sg, _) in self.sinks.row(ni) {
                    let sg = sg as usize;
                    // Sequential sinks capture (endpoint below); their
                    // launch does not depend on the data input.
                    if !nl.gate_kind(sg).is_sequential() && !self.dirty_gate[sg] {
                        self.dirty_gate[sg] = true;
                        stages[self.stage_of(sg)].push(sg as u32);
                    }
                }
                for &e in &self.ep_of_net[ni] {
                    mark(&mut self.dirty_eps, &mut self.dirty_ep, e as usize);
                }
            }
            self.dirty_gate[gi] = false;
            self.last_recomputed += 1;
        }
        out.nets.clear();
        out.delays.clear();
    }

    fn recompute_endpoint(&mut self, e: usize) {
        let net = self.endpoints[e].net.0 as usize;
        let arrival = self.nets[net].arrival;
        let required = if self.ep_gate[e] != NONE_U32 {
            let gi = self.ep_gate[e] as usize;
            let (data, clock) = (self.nets[net].slew, self.config.clock_slew);
            let setup = match self.setup_arc[gi] {
                NONE_U32 => None,
                arc => self
                    .arena
                    .delay(arc, &mut Probe::new(data), &mut Probe::new(clock))
                    .ok(),
            };
            let setup = setup.unwrap_or(self.config.setup_time);
            self.config.effective_period() - setup
        } else {
            self.config.effective_period()
        };
        self.endpoints[e].arrival = arrival;
        self.endpoints[e].required = required;
    }

    /// Propagation stage of gate `gi`: 0 for a sequential (launch) gate,
    /// `v + 1` for a combinational gate at level `v`.
    fn stage_of(&self, gi: usize) -> usize {
        if self.is_sequential(gi) {
            0
        } else {
            self.level[gi] as usize + 1
        }
    }

    /// Counting-sort stage schedule (used by the statistical propagation
    /// in [`crate::ssta`] and by [`TimingGraph::required_times`]): every
    /// gate in its [`TimingGraph::stage_of`] stage, ascending within each
    /// stage. Returns `(stage_off, schedule)` with stage `s` occupying
    /// `schedule[stage_off[s]..stage_off[s + 1]]`.
    pub(crate) fn stage_schedule(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.gate_count();
        let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
        let n_stages = max_level + 2;
        let mut stage_off = vec![0u32; n_stages + 1];
        for gi in 0..n {
            stage_off[self.stage_of(gi) + 1] += 1;
        }
        for s in 0..n_stages {
            stage_off[s + 1] += stage_off[s];
        }
        let mut schedule = vec![0u32; n];
        let mut cursor: Vec<u32> = stage_off[..n_stages].to_vec();
        for gi in 0..n {
            let s = self.stage_of(gi);
            schedule[cursor[s] as usize] = gi as u32;
            cursor[s] += 1;
        }
        (stage_off, schedule)
    }

    /// Records the structure of a sharded stage: each shard's gate count
    /// and how many of its output nets other stages read (the
    /// boundary-arrival exchange). Functions of the schedule and the
    /// graph, never of the worker count.
    fn observe_shards(&self, list: &[u32]) {
        for shard in list.chunks(SHARD_GATES) {
            varitune_trace::observe("sta.shard_occupancy", shard.len() as u64);
            let boundary: usize = shard
                .iter()
                .map(|&g| {
                    self.design
                        .netlist
                        .gate_outputs(g as usize)
                        .iter()
                        .filter(|&&net| {
                            let ni = net.0 as usize;
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

    /// Appends the derived rows of a freshly added combinational gate of
    /// the interned `shape` at `level`, which the caller computes exactly
    /// from the gate's drivers (its sinks are re-levelled by
    /// [`TimingGraph::raise_levels`]). The gate's pins are the netlist's
    /// last, so its pin caps go at the end of `in_cap`.
    fn push_gate_row(&mut self, shape: Shape, level: u32) {
        let ic = &self.memo[&shape];
        self.level.push(level);
        self.in_cap.extend_from_slice(&ic.caps);
        self.arcs.extend_from_slice(&ic.arcs);
        self.arc_off.push(self.arcs.len() as u32);
        self.delays.resize(self.arcs.len(), f64::NAN);
        self.setup_arc.push(ic.setup);
        self.seq_ep.push(NONE_U32);
        self.dirty_gate.push(false);
    }

    /// Splits the fanout of `net` behind an INV→INV pair — the body of
    /// [`TimingGraph::split_fanout_id`]: the netlist edit, then the
    /// derived indexes.
    fn split_fanout_impl(
        &mut self,
        net: NetId,
        inv_cell: CellId,
    ) -> Result<(usize, usize), StaError> {
        // Intern before touching anything, so a cell that does not fit leaves
        // the engine unchanged. Both inverters share the cell and the shape.
        let g1 = self.gate_count();
        let shape = Shape {
            cell: inv_cell,
            n_in: 1,
            n_out: 1,
            seq: false,
        };
        intern(&mut self.memo, &mut self.arena, self.lib, g1, shape)?;

        let ni = net.0 as usize;
        let all: Vec<(u32, u32)> = self.sinks.row(ni).to_vec();
        let moved = &all[all.len() / 2..];

        let nl = &mut self.design.netlist;
        let base = nl.net_name(net).to_string();
        let mid = nl.add_net(format_args!("{base}_bufm"));
        let out = nl.add_net(format_args!("{base}_bufo"));
        for &(g, k) in moved {
            nl.set_gate_input(g as usize, k as usize, out);
        }
        nl.add_gate(GateKind::Inv, &[net], &[mid]);
        let g2 = nl.add_gate(GateKind::Inv, &[mid], &[out]);
        self.design.cells.push(inv_cell);
        self.design.cells.push(inv_cell);

        let (mi, oi) = (mid.0 as usize, out.0 as usize);
        // Per-net rows for `mid` and `out` (in id order).
        self.sinks.add_row(&[(g2 as u32, 0)]);
        self.sinks.add_row(moved);
        for _ in 0..2 {
            self.po_taps.push(0);
            self.driver.push(NONE_U32);
            self.ep_of_net.push(Vec::new());
            self.loads.push(0.0);
            self.load_override.push(None);
            self.nets.push(NetTiming::unpropagated());
            self.dirty_load.push(false);
        }
        self.driver[mi] = g1 as u32;
        self.driver[oi] = g2 as u32;
        self.sinks.truncate(ni, all.len() / 2);
        self.sinks.push(ni, (g1 as u32, 0));

        // Per-gate rows for the two inverters: `g1` one level above the
        // split net's driver (a primary-input or sequential driver puts it
        // at level 0), `g2` one above `g1`.
        let l1 = match self.driver[ni] {
            d if d == NONE_U32 || self.is_sequential(d as usize) => 0,
            d => self.level[d as usize] + 1,
        };
        self.push_gate_row(shape, l1);
        self.push_gate_row(shape, l1 + 1);

        // Endpoints attached to moved flip-flop data inputs follow their net.
        for &(g, _) in moved {
            let e = self.seq_ep[g as usize];
            if e != NONE_U32 {
                let e = e as usize;
                self.endpoints[e].net = out;
                self.ep_of_net[ni].retain(|&x| x as usize != e);
                self.ep_of_net[oi].push(e as u32);
                self.mark_ep_dirty(e);
            }
        }

        // Structure changed: re-level before marking dirt. Only the moved
        // sinks lost a driver (the split net's, which sits below `g2`) and
        // gained one (`g2`), so raising `g2`'s forward cone is exact.
        self.raise_levels(g2);
        self.mark_load_dirty(ni);
        self.mark_load_dirty(mi);
        self.mark_load_dirty(oi);
        self.mark_gate_dirty(g1);
        self.mark_gate_dirty(g2);
        for &(g, _) in moved {
            if !self.is_sequential(g as usize) {
                self.mark_gate_dirty(g as usize);
            }
        }
        Ok((g1, g2))
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
        self.lib
    }

    /// The analysis configuration.
    pub fn config(&self) -> &StaConfig {
        &self.config
    }

    /// Number of gates (grows as buffers are inserted).
    pub fn gate_count(&self) -> usize {
        self.design.netlist.gate_count()
    }

    /// Cell name of gate `gi`, resolved through the library (ids always
    /// resolve here: they were validated when the gate was interned).
    pub fn cell_name(&self, gi: usize) -> &str {
        &self.lib.cells[self.design.cells[gi].index()].name
    }

    /// Cell id of gate `gi`.
    pub fn cell_id(&self, gi: usize) -> CellId {
        self.design.cells[gi]
    }

    /// Load on `net` as of the last [`TimingGraph::update`] or
    /// [`TimingGraph::update_loads`].
    pub fn load(&self, net: NetId) -> f64 {
        self.loads[net.0 as usize]
    }

    /// All net loads as of the last [`TimingGraph::update`] or
    /// [`TimingGraph::update_loads`].
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Timing of `net` as of the last [`TimingGraph::update`].
    pub fn net_timing(&self, net: NetId) -> &NetTiming {
        &self.nets[net.0 as usize]
    }

    /// Endpoints as of the last [`TimingGraph::update`].
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Worst slack as of the last [`TimingGraph::update`].
    pub fn worst_slack(&self) -> f64 {
        self.endpoints
            .iter()
            .map(Endpoint::slack)
            .fold(f64::INFINITY, f64::min)
    }

    /// Structural fanout of `net` (gate sinks + primary-output taps);
    /// reflects edits immediately.
    pub fn fanout(&self, net: NetId) -> usize {
        let ni = net.0 as usize;
        self.sinks.n_sinks(ni) + self.po_taps[ni] as usize
    }

    /// Driving gate of `net`; reflects edits immediately.
    pub fn driver(&self, net: NetId) -> Option<usize> {
        let d = self.driver[net.0 as usize];
        (d != NONE_U32).then_some(d as usize)
    }

    /// Input nets of gate `gi` in pin order; reflects edits immediately.
    pub fn gate_inputs(&self, gi: usize) -> impl ExactSizeIterator<Item = NetId> + '_ {
        self.design.netlist.gate_inputs(gi).iter().copied()
    }

    /// Output nets of gate `gi` in pin order; reflects edits immediately.
    pub fn gate_outputs(&self, gi: usize) -> impl ExactSizeIterator<Item = NetId> + '_ {
        self.design.netlist.gate_outputs(gi).iter().copied()
    }

    /// Whether gate `gi` is sequential (a flip-flop).
    pub fn is_sequential(&self, gi: usize) -> bool {
        self.design.netlist.gate_kind(gi).is_sequential()
    }

    /// Gates re-evaluated by the last [`TimingGraph::update`] — the dirty
    /// cone size, exposed for tests and the bench harness.
    pub fn gates_recomputed_in_last_update(&self) -> usize {
        self.last_recomputed
    }

    /// Snapshot of the current timing state as a [`TimingReport`],
    /// bit-identical to a fresh [`crate::graph::analyze`] of
    /// [`TimingGraph::design`] when the engine is clean (no edits since
    /// the last [`TimingGraph::update`]).
    pub fn report(&self) -> TimingReport {
        TimingReport {
            config: self.config,
            nets: self.nets.clone(),
            endpoints: self.endpoints.clone(),
        }
    }

    /// Re-propagates what the edits since the last update (or
    /// [`TimingGraph::invalidate_all`], which every build runs) marked
    /// dirty, following a change only where a net's arrival or slew
    /// changed bits; cheap no-op when nothing changed.
    ///
    /// Dirty loads are recomputed first ([`TimingGraph::update_loads`]).
    /// Dirty gates then go stage by stage in ascending order within a
    /// stage, through the stage evaluator SSTA shares; a gate's inputs
    /// come from earlier stages, and a change dirties only sinks in later
    /// stages, so one ascending sweep converges. Dirty endpoints refresh
    /// last, ascending. Commits, the first error and endpoints go in the
    /// same order at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] if a LUT evaluation fails. The engine state is
    /// unspecified (but memory-safe) after an error; discard it.
    pub fn update(&mut self) -> Result<(), StaError> {
        let tracing = varitune_trace::is_recording();
        let full = std::mem::take(&mut self.all_dirty);
        self.last_recomputed = 0;

        // 1. Net loads.
        self.update_loads();

        // 2. Dirty gates, stage by stage (levels are frozen during an
        //    update: structural edits re-level before marking).
        let gates = std::mem::take(&mut self.dirty_gates);
        if !gates.is_empty() {
            let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
            let mut stages: Vec<Vec<u32>> = vec![Vec::new(); max_level + 2];
            for &g in &gates {
                stages[self.stage_of(g as usize)].push(g);
            }
            let threads = self.threads;
            let mut scratch = StageOut::default();
            for s in 0..stages.len() {
                let mut list = std::mem::take(&mut stages[s]);
                if list.is_empty() {
                    continue;
                }
                list.sort_unstable();
                if tracing {
                    // Level-parallelism occupancy: how many dirty gates
                    // each combinational stage offers at once. A function
                    // of the graph and the edit sequence only, never of
                    // the thread count.
                    if s > 0 {
                        varitune_trace::observe("sta.level_width", list.len() as u64);
                    }
                    if list.len() >= MIN_PARALLEL_WIDTH {
                        self.observe_shards(&list);
                    }
                }
                run_stage(
                    self,
                    &list,
                    threads,
                    &mut scratch,
                    Self::eval_gates,
                    |graph, shard, out| graph.commit(shard, out, &mut stages),
                )?;
            }
        }

        // 3. Endpoints.
        let mut eps = std::mem::take(&mut self.dirty_eps);
        eps.sort_unstable();
        for &e in &eps {
            self.dirty_ep[e as usize] = false;
            self.recompute_endpoint(e as usize);
        }

        if tracing {
            varitune_trace::add("sta.updates", 1);
            if full {
                varitune_trace::add("sta.full_propagations", 1);
            }
            varitune_trace::add("sta.gates_recomputed", self.last_recomputed as u64);
            // Dirty-cone size distribution: how local each edit really was.
            varitune_trace::observe("sta.dirty_cone", self.last_recomputed as u64);
        }
        Ok(())
    }

    /// Recomputes the net loads the edits since the last refresh changed —
    /// the first step of [`TimingGraph::update`], run alone. Afterwards
    /// [`TimingGraph::load`] and [`TimingGraph::loads`] (and the `load`
    /// field of [`TimingGraph::net_timing`]) reflect every edit, while
    /// arrivals, slews, endpoints and required times stay as of the last
    /// `update`. The driver of a net whose load changed stays marked, so
    /// the next `update` re-times it with every other pending edit. A load
    /// depends only on the structure, the cells and any override, so it
    /// has the bits `update` would compute (each net's summation order is
    /// fixed, whatever order the dirty nets are visited in).
    pub fn update_loads(&mut self) {
        let mut nets = std::mem::take(&mut self.dirty_loads);
        nets.sort_unstable();
        for &ni in &nets {
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

    /// Re-maps gate `gi` onto library cell `cell`, dirtying its input-net
    /// loads (pin capacitances changed) and the downstream cone. The
    /// design's cell entry is the only copy it rewrites; a cell the graph
    /// has already interned at this gate's shape is a memo lookup.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] if `gi` is out of range;
    /// [`StaError::UnknownCell`] (with a `cell#<id>` label) for an id out
    /// of range for the library, [`StaError::MissingArc`] if the cell does
    /// not fit. The engine is unchanged on error.
    pub fn resize_gate_id(&mut self, gi: usize, cell: CellId) -> Result<(), StaError> {
        self.check_gate(gi)?;
        if self.design.cells[gi] == cell {
            return Ok(());
        }
        let nl = &self.design.netlist;
        let shape = Shape {
            cell,
            n_in: nl.gate_inputs(gi).len(),
            n_out: nl.gate_outputs(gi).len(),
            seq: nl.gate_kind(gi).is_sequential(),
        };
        let ic = intern(&mut self.memo, &mut self.arena, self.lib, gi, shape)?;
        self.design.cells[gi] = cell;
        let a0 = self.arc_off[gi] as usize;
        self.arcs[a0..a0 + ic.arcs.len()].copy_from_slice(&ic.arcs);
        let i0 = self.design.netlist.first_input_pin(gi);
        self.in_cap[i0..i0 + ic.caps.len()].copy_from_slice(&ic.caps);
        self.setup_arc[gi] = ic.setup;
        for &inp in self.design.netlist.gate_inputs(gi) {
            mark(&mut self.dirty_loads, &mut self.dirty_load, inp.0 as usize);
        }
        self.mark_gate_dirty(gi);
        if self.seq_ep[gi] != NONE_U32 {
            // The setup constraint arc changed with the cell.
            self.mark_ep_dirty(self.seq_ep[gi] as usize);
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
        self.load_override[net.0 as usize] = load;
        self.mark_load_dirty(net.0 as usize);
        Ok(())
    }

    /// Splits the fanout of `net` behind an INV→INV pair mapped to library
    /// cell `inv_cell`, moving the second half of the gate sinks (by
    /// ascending gate index) onto the buffered copy — the synthesis
    /// buffering move. Returns the two new gate indices.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidParameter`] if `net` is out of range;
    /// [`StaError::UnknownCell`]/[`StaError::MissingArc`] if `inv_cell`
    /// cannot be interned. The engine is unchanged on error.
    pub fn split_fanout_id(
        &mut self,
        net: NetId,
        inv_cell: CellId,
    ) -> Result<(usize, usize), StaError> {
        self.check_net(net)?;
        self.id.renew();
        self.split_fanout_impl(net, inv_cell)
    }

    /// Test hook: whether the incrementally maintained levels equal the
    /// levels computed from scratch over the edited design's
    /// [`varitune_netlist::Netlist::comb_order`].
    #[cfg(test)]
    fn levels_match_full_levelization(&self) -> bool {
        self.design
            .netlist
            .comb_order()
            .is_ok_and(|order| self.levels(&order) == self.level)
    }

    /// Backward required-time propagation as of the last
    /// [`TimingGraph::update`]: a min over the arc delays that update's
    /// gate evaluations stored, bit-identical to
    /// [`crate::graph::required_times`] on the same state.
    pub fn required_times(&self) -> Vec<f64> {
        let nl = &self.design.netlist;
        let mut req = vec![f64::INFINITY; self.nets.len()];
        for ep in &self.endpoints {
            let r = &mut req[ep.net.0 as usize];
            *r = r.min(ep.required);
        }
        // Any reverse topological order gives bit-identical results (the
        // per-net fold is a min); the combinational stages of the
        // counting-sort schedule, backwards, are one (descending level,
        // descending gate within a level).
        let (stage_off, schedule) = self.stage_schedule();
        for &g in schedule[stage_off[1] as usize..].iter().rev() {
            let gi = g as usize;
            let ins = nl.gate_inputs(gi);
            let n_in = ins.len();
            let delays = &self.delays[self.arc_row(gi)];
            for (j, &out) in nl.gate_outputs(gi).iter().enumerate() {
                let out_req = req[out.0 as usize];
                if !out_req.is_finite() {
                    continue;
                }
                for (&inp, &delay) in ins.iter().zip(&delays[j * n_in..(j + 1) * n_in]) {
                    let r = &mut req[inp.0 as usize];
                    *r = r.min(out_req - delay);
                }
            }
        }
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::analyze;
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_nominal, GenerateConfig};
    use varitune_liberty::{InterpolateError, TimingArc};
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
        engine
            .resize_gate_id(4, lib.cell_id("INV_8").unwrap())
            .unwrap();
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
        engine
            .resize_gate_id(40, lib.cell_id("INV_4").unwrap())
            .unwrap();
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
        engine
            .resize_gate_id(3, lib.cell_id("INV_2").unwrap())
            .unwrap();
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
        let (g1, g2) = engine
            .split_fanout_id(x, lib.cell_id("INV_2").unwrap())
            .unwrap();
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
        engine
            .split_fanout_id(x, lib.cell_id("INV_2").unwrap())
            .unwrap();
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
        let eng = engine.required_times();
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
            engine.resize_gate_id(2, CellId(u32::MAX)),
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
        // Dirty every gate of the wide level through load overrides so an
        // edit's update shards a stage past MIN_PARALLEL_WIDTH; results and
        // the update's trace must agree across thread counts.
        let d = wide(3000, &lib);
        let run = |threads: usize| {
            let mut engine = TimingGraph::new(d.clone(), &lib, &cfg).unwrap();
            engine.set_threads(threads);
            for gi in 0..engine.gate_count() {
                let out = engine.design().netlist.gate_outputs(gi)[0];
                engine.set_load(out, Some(0.031)).unwrap();
            }
            let ((), trace) = varitune_trace::capture(|| engine.update().unwrap());
            assert_eq!(engine.gates_recomputed_in_last_update(), 3000);
            (engine.report(), trace)
        };
        let (one, trace) = run(1);
        assert!(
            trace.counter("variation.shard_calls") > 0,
            "the wide edit never sharded its stage"
        );
        for threads in [2, 8] {
            let (report, other) = run(threads);
            assert_reports_bit_identical(&one, &report);
            assert_eq!(trace, other, "trace at {threads} threads");
        }
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
                let nets = engine.nets.len();
                let Some(net) = (0..nets)
                    .map(|i| NetId(((pick + i) % nets) as u32))
                    .find(|&n| engine.sinks(n.0 as usize).len() >= 2)
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
    fn a_nan_config_field_is_an_error_and_an_infinite_period_is_not() {
        let lib = lib();
        let d = chain(3, "INV_2", &lib);
        let fields: [fn(&mut StaConfig); 5] = [
            |c| c.clock_period = f64::NAN,
            |c| c.clock_uncertainty = f64::NAN,
            |c| c.input_slew = f64::NAN,
            |c| c.clock_slew = f64::NAN,
            |c| c.setup_time = f64::NAN,
        ];
        for set in fields {
            let mut cfg = StaConfig::with_clock_period(2.0);
            set(&mut cfg);
            for err in [
                analyze(&d, &lib, &cfg).err(),
                TimingGraph::new(d.clone(), &lib, &cfg).err(),
            ] {
                assert!(
                    matches!(err, Some(StaError::InvalidParameter { .. })),
                    "{err:?}"
                );
            }
        }
        let cfg = StaConfig::with_clock_period(f64::INFINITY);
        assert!(analyze(&d, &lib, &cfg).unwrap().meets_timing());
    }

    /// The small library with `edit` applied to every timing arc of
    /// `cell`'s output pins.
    fn lib_with(cell: &str, edit: impl Fn(&mut TimingArc)) -> Library {
        let mut lib = lib();
        let c = lib.cells.iter_mut().find(|c| c.name == cell).unwrap();
        for pin in &mut c.pins {
            if pin.direction == varitune_liberty::PinDirection::Output {
                pin.timing.iter_mut().for_each(&edit);
            }
        }
        lib
    }

    #[test]
    fn a_non_finite_load_fails_the_update_with_a_typed_error() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let d = chain(4, "INV_2", &lib);
            let x = d.netlist.gate_outputs(1)[0];
            let mut engine = TimingGraph::new(d, &lib, &cfg).unwrap();
            engine.set_load(x, Some(bad)).unwrap();
            let err = engine.update().unwrap_err();
            assert!(
                matches!(
                    err,
                    StaError::Interpolate(InterpolateError::NonFiniteQuery { value })
                        if value.to_bits() == bad.to_bits()
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn cells_without_delay_or_transition_tables_fail_the_build() {
        let cfg = StaConfig::with_clock_period(2.0);
        let no_delay = lib_with("INV_2", |a| {
            a.cell_rise = None;
            a.cell_fall = None;
        });
        let no_transition = lib_with("INV_2", |a| {
            a.rise_transition = None;
            a.fall_transition = None;
        });
        for lib in [&no_delay, &no_transition] {
            let d = chain(3, "INV_2", lib);
            for err in [
                analyze(&d, lib, &cfg).err(),
                TimingGraph::new(d.clone(), lib, &cfg).err(),
            ] {
                assert_eq!(
                    err,
                    Some(StaError::Interpolate(InterpolateError::EmptyTable))
                );
            }
        }
    }

    #[test]
    fn a_failing_setup_arc_falls_back_to_the_configured_setup_time() {
        // a -> DF_1 -> q: the flip-flop's data endpoint takes its setup
        // from the library arc, or from the config when that arc fails.
        let design = |lib: &Library| {
            let mut nl = Netlist::new("ff");
            let a = nl.add_input("a");
            let q = nl.add_net("q");
            nl.add_gate(GateKind::Dff, &[a], &[q]);
            nl.mark_output(q);
            MappedDesign::from_names(nl, &["DF_1"], lib, WireModel::default()).unwrap()
        };
        let mut cfg = StaConfig::with_clock_period(2.0);
        cfg.setup_time = 0.123;
        let required = |lib: &Library| {
            let engine = TimingGraph::new(design(lib), lib, &cfg).unwrap();
            let ep = engine.endpoints()[0];
            assert!(matches!(ep.kind, EndpointKind::FlipFlopData { gate: 0 }));
            ep.required
        };
        let good = lib();
        let mut broken = good.clone();
        let setup = broken
            .cells
            .iter_mut()
            .find(|c| c.name == "DF_1")
            .unwrap()
            .pins
            .iter_mut()
            .flat_map(|p| &mut p.timing)
            .find(|a| a.timing_type == TimingType::SetupRising)
            .expect("DF_1 carries a setup arc");
        setup.cell_rise = None;
        setup.cell_fall = None;
        let fallback = cfg.effective_period() - cfg.setup_time;
        assert_ne!(required(&good).to_bits(), fallback.to_bits());
        assert_eq!(required(&broken).to_bits(), fallback.to_bits());
    }

    #[test]
    fn a_table_that_does_not_fit_its_axes_is_an_error_not_a_panic() {
        let cfg = StaConfig::with_clock_period(2.0);
        let bad = lib_with("INV_1", |a| {
            if let Some(t) = &mut a.cell_rise {
                t.values = vec![vec![0.1]];
            }
        });
        let axes = &bad.cell("INV_1").unwrap().pin("Z").unwrap().timing[0];
        let lut = axes.cell_rise.as_ref().unwrap();
        let (rows, cols) = (lut.rows(), lut.cols());
        assert!(rows > 1 && cols > 1);
        let want = StaError::Interpolate(InterpolateError::ShapeMismatch { rows, cols });
        let d = chain(3, "INV_1", &bad);
        assert_eq!(analyze(&d, &bad, &cfg).err(), Some(want.clone()));
        assert_eq!(TimingGraph::new(d, &bad, &cfg).err(), Some(want.clone()));
        // An edit onto the cell fails the same way and changes nothing.
        let mut engine = TimingGraph::new(chain(3, "INV_2", &bad), &bad, &cfg).unwrap();
        let (design, report) = (engine.design().clone(), engine.report());
        assert_eq!(
            engine.resize_gate_id(1, bad.cell_id("INV_1").unwrap()),
            Err(want.clone())
        );
        assert_eq!(
            engine
                .split_fanout_id(NetId(0), bad.cell_id("INV_1").unwrap())
                .err(),
            Some(want)
        );
        engine.update().unwrap();
        assert_eq!(engine.design(), &design);
        assert_eq!(engine.report(), report);
    }

    #[test]
    fn a_resize_to_an_interned_shape_is_a_lookup() {
        let lib = lib();
        let cfg = StaConfig::with_clock_period(2.0);
        let mut engine = TimingGraph::new(chain(6, "INV_2", &lib), &lib, &cfg).unwrap();
        let sizes = |e: &TimingGraph<'_>| (e.memo.len(), e.arena.len());
        let built = sizes(&engine);
        engine
            .resize_gate_id(1, lib.cell_id("INV_8").unwrap())
            .unwrap();
        let grown = sizes(&engine);
        assert_eq!(grown, (built.0 + 1, built.1 + 1));
        engine
            .resize_gate_id(3, lib.cell_id("INV_8").unwrap())
            .unwrap();
        engine
            .resize_gate_id(1, lib.cell_id("INV_2").unwrap())
            .unwrap();
        assert_eq!(sizes(&engine), grown);
        engine.update().unwrap();
        let full = analyze(engine.design(), &lib, &cfg).unwrap();
        assert_reports_bit_identical(&engine.report(), &full);
    }

    #[test]
    fn a_job_capture_records_the_engine_counters() {
        // Served jobs trace under their own `capture`; the engine's
        // counters must land there.
        let lib = generate_nominal(&GenerateConfig::full());
        let cfg = StaConfig::with_clock_period(6.0);
        let d = small_mcu(&lib);
        let gates = d.netlist.gate_count() as u64;
        let (_, job) = varitune_trace::capture(|| TimingGraph::new(d, &lib, &cfg).unwrap());
        for (name, want) in [
            ("sta.graph_builds", 1),
            ("sta.updates", 1),
            ("sta.full_propagations", 1),
            ("sta.gates_recomputed", gates),
        ] {
            assert_eq!(job.counter(name), want, "{name}");
        }
        let cone = job.metrics.histograms.get("sta.dirty_cone");
        assert_eq!(cone.map(|h| (h.count, h.sum)), Some((1, gates)));
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
