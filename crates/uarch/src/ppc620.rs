//! Trace-driven cycle model of a PowerPC 620-class out-of-order core
//! (paper Section 4.1, Figure 4), with the widened "620+" configuration
//! of Section 6.2.
//!
//! Modelled mechanisms: 4-wide fetch/dispatch/completion, per-FU
//! reservation stations, GPR/FPR rename buffers, a completion buffer with
//! in-order retirement, bimodal branch prediction with BTB, a dual-banked
//! non-blocking L1 data cache over an L2/memory hierarchy, and the full
//! LVP interaction of Section 4.1:
//!
//! * predicted loads forward their value at **dispatch**; dependents may
//!   issue immediately but hold their reservation stations until the load
//!   verifies (one cycle after the actual value returns);
//! * on an incorrect prediction, dependents that issued early reissue one
//!   cycle after the value returns (dependents that had not issued pay no
//!   penalty);
//! * CVU-verified constant loads never touch the cache: no bank usage, no
//!   miss.
//!
//! Simplifications (documented in DESIGN.md): perfect I-fetch and no
//! store-to-load alias refetch. Outstanding misses are bounded by the
//! configured MSHR count (the 620's non-blocking cache).
//!
//! The scheduler is event-driven and keeps its window state as bitsets
//! over ring slots: the work per simulated cycle follows that cycle's
//! issues, wakeups, releases, squashes and retirements, not the window
//! size (DESIGN.md §8.1).

use crate::branch::BranchPredictor;
use crate::cache::{BankArbiter, CacheConfig, MemHierarchy, MemLatency};
use crate::latency::LatencyTable;
use crate::metrics::SimResult;
use lvp_trace::{OpKind, PredOutcome, Trace};

/// Functional-unit classes of the 620 (Figure 4). The discriminant is
/// the class's dense index.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
enum Fu {
    /// Single-cycle fixed point (2 units).
    Scfx = 0,
    /// Multi-cycle fixed point (1 unit, unpipelined).
    Mcfx = 1,
    /// Floating point (1 unit; complex ops unpipelined).
    Fpu = 2,
    /// Load/store (1 unit on the 620, 2 on the 620+).
    Lsu = 3,
    /// Branch unit.
    Bru = 4,
}

fn fu_of(kind: OpKind) -> Fu {
    match kind {
        OpKind::IntSimple | OpKind::System => Fu::Scfx,
        OpKind::IntComplex => Fu::Mcfx,
        OpKind::FpSimple | OpKind::FpComplex => Fu::Fpu,
        OpKind::Load | OpKind::Store => Fu::Lsu,
        OpKind::CondBranch | OpKind::Jump | OpKind::IndirectJump => Fu::Bru,
    }
}

/// Configuration of the 620-class model.
#[derive(Debug, Clone)]
pub struct Ppc620Config {
    /// Display name.
    pub name: &'static str,
    /// Fetch/dispatch/completion width.
    pub width: usize,
    /// Reservation stations per functional-unit *class*.
    pub rs_per_class: usize,
    /// GPR rename buffers.
    pub gpr_renames: usize,
    /// FPR rename buffers.
    pub fpr_renames: usize,
    /// Completion (reorder) buffer entries.
    pub completion_buffer: usize,
    /// Number of load/store units.
    pub n_lsu: usize,
    /// Loads+stores that may dispatch per cycle.
    pub mem_dispatch_per_cycle: usize,
    /// Instruction latencies.
    pub latency: LatencyTable,
    /// L1 data-cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Miss latencies.
    pub mem_latency: MemLatency,
    /// Miss-status holding registers: maximum outstanding L1 misses the
    /// non-blocking cache supports; further missing loads wait to issue.
    pub mshrs: usize,
}

impl Ppc620Config {
    /// The baseline PowerPC 620: 2-entry reservation stations per unit
    /// class (4 for the two SCFX units), 8+8 rename buffers, a 16-entry
    /// completion buffer, one LSU, and one load/store dispatch per cycle.
    pub fn base() -> Ppc620Config {
        Ppc620Config {
            name: "620",
            width: 4,
            rs_per_class: 4,
            gpr_renames: 8,
            fpr_renames: 8,
            completion_buffer: 16,
            n_lsu: 1,
            mem_dispatch_per_cycle: 1,
            latency: LatencyTable::ppc620(),
            l1: CacheConfig::ppc620_l1d(),
            l2: CacheConfig::ppc620_l2(),
            mem_latency: MemLatency::ppc620(),
            mshrs: 4,
        }
    }

    /// The "next-generation" 620+ (Section 6.2): doubled reservation
    /// stations, rename buffers and completion buffer; a second LSU
    /// without an extra cache port; up to two loads/stores dispatched per
    /// cycle.
    pub fn plus() -> Ppc620Config {
        Ppc620Config {
            name: "620+",
            rs_per_class: 8,
            gpr_renames: 16,
            fpr_renames: 16,
            completion_buffer: 32,
            n_lsu: 2,
            mem_dispatch_per_cycle: 2,
            ..Ppc620Config::base()
        }
    }

    fn units(&self, fu: Fu) -> usize {
        match fu {
            Fu::Scfx => 2,
            Fu::Mcfx | Fu::Fpu | Fu::Bru => 1,
            Fu::Lsu => self.n_lsu,
        }
    }
}

/// A set of ring slots, one bit per slot. Every window set and every
/// dependency row is one. `u64` covers a 64-slot ring; [`WideSet`] any
/// larger power of two.
trait SlotSet: Clone {
    /// Iterator over the members in window order.
    type Walk: Iterator<Item = usize>;
    /// The empty set over a ring of `slots` slots.
    fn empty(slots: usize) -> Self;
    fn insert(&mut self, slot: usize);
    fn remove(&mut self, slot: usize);
    fn contains(&self, slot: usize) -> bool;
    fn is_empty(&self) -> bool;
    fn clear(&mut self);
    fn union_with(&mut self, other: &Self);
    fn intersect_with(&mut self, other: &Self);
    fn subtract(&mut self, other: &Self);
    /// The members in window order, the window starting at ring slot
    /// `head`: rotate by `head`, then step by trailing zeros. The walk
    /// owns a copy, so the set may change under it.
    fn walk(&self, head: usize) -> Self::Walk;
}

impl SlotSet for u64 {
    type Walk = Walk64;

    fn empty(slots: usize) -> u64 {
        debug_assert_eq!(slots, 64);
        0
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        *self |= 1 << slot;
    }

    #[inline]
    fn remove(&mut self, slot: usize) {
        *self &= !(1 << slot);
    }

    #[inline]
    fn contains(&self, slot: usize) -> bool {
        *self & (1 << slot) != 0
    }

    #[inline]
    fn is_empty(&self) -> bool {
        *self == 0
    }

    #[inline]
    fn clear(&mut self) {
        *self = 0;
    }

    #[inline]
    fn union_with(&mut self, other: &u64) {
        *self |= other;
    }

    #[inline]
    fn intersect_with(&mut self, other: &u64) {
        *self &= other;
    }

    #[inline]
    fn subtract(&mut self, other: &u64) {
        *self &= !other;
    }

    #[inline]
    fn walk(&self, head: usize) -> Walk64 {
        Walk64 {
            rest: self.rotate_right(head as u32),
            head,
        }
    }
}

/// [`SlotSet::walk`] over one word.
struct Walk64 {
    /// The members not yet visited, rotated so `head` is bit 0.
    rest: u64,
    head: usize,
}

impl Iterator for Walk64 {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.rest == 0 {
            return None;
        }
        let k = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some((k + self.head) & 63)
    }
}

/// A [`SlotSet`] over a ring of any power-of-two size of at least 64
/// slots, for completion buffers wider than one word.
#[derive(Clone)]
struct WideSet(Box<[u64]>);

impl SlotSet for WideSet {
    type Walk = WideWalk;

    fn empty(slots: usize) -> WideSet {
        debug_assert!(slots.is_power_of_two() && slots >= 64);
        WideSet(vec![0; slots / 64].into_boxed_slice())
    }

    fn insert(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    fn remove(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    fn union_with(&mut self, other: &WideSet) {
        self.0.iter_mut().zip(&*other.0).for_each(|(a, b)| *a |= b);
    }

    fn intersect_with(&mut self, other: &WideSet) {
        self.0.iter_mut().zip(&*other.0).for_each(|(a, b)| *a &= b);
    }

    fn subtract(&mut self, other: &WideSet) {
        self.0.iter_mut().zip(&*other.0).for_each(|(a, b)| *a &= !b);
    }

    fn walk(&self, head: usize) -> WideWalk {
        // Rotated word j holds the bits at slots 64j + head onwards.
        let n = self.0.len();
        let (skip, shift) = (head / 64, head % 64);
        let words = (0..n)
            .map(|j| {
                let lo = self.0[(j + skip) % n];
                if shift == 0 {
                    lo
                } else {
                    (lo >> shift) | (self.0[(j + skip + 1) % n] << (64 - shift))
                }
            })
            .collect();
        WideWalk {
            words,
            word: 0,
            head,
            mask: n * 64 - 1,
        }
    }
}

/// [`SlotSet::walk`] over a [`WideSet`].
struct WideWalk {
    /// The members not yet visited, rotated so `head` is bit 0.
    words: Vec<u64>,
    word: usize,
    head: usize,
    mask: usize,
}

impl Iterator for WideWalk {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.word) {
            if *w != 0 {
                let k = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some((self.word * 64 + k + self.head) & self.mask);
            }
            self.word += 1;
        }
        None
    }
}

/// One completion-buffer entry. Whether it has issued, forwards its
/// value or holds a reservation station is kept in the [`Window`]'s
/// sets. An issued op is *finished* once `finish_cycle <= cycle`.
#[derive(Debug, Clone, Copy)]
struct Op {
    seq: u64,
    kind: OpKind,
    /// FU class, as a [`Fu`] discriminant.
    fx: u8,
    pred: Option<PredOutcome>,
    mem_addr: u64,
    /// Destination register, as a flat index.
    dst: Option<u8>,
    /// Result latency of a non-memory op, looked up at dispatch.
    latency: u64,
    /// Sequence numbers of the sources' producers. A source without an
    /// in-flight producer at dispatch reads 0, which precedes every op
    /// and so reads like a retired producer.
    src_producers: [u64; 2],
    /// Bit `k` set: source `k`'s in-window producer neither forwards nor
    /// has issued.
    pending: u8,
    dispatch_cycle: u64,
    /// Earliest reissue cycle after a squash.
    min_issue_cycle: u64,
    /// Earliest issue cycle once `pending == 0`: the latest of dispatch
    /// + 1, `min_issue_cycle` and each issued in-window producer's finish.
    ready_at: u64,
    issue_cycle: u64,
    /// `u64::MAX` until the op issues.
    finish_cycle: u64,
    /// For predicted loads: finish + 1; otherwise == finish. `u64::MAX`
    /// until the op issues.
    verify_cycle: u64,
    /// Bit `k` set: source `k` was a speculative (predicted-load) value
    /// when this op issued; RS release waits until they all verify.
    spec_srcs: u8,
    operand_wait: u64,
    squashed_once: bool,
}

impl Op {
    /// A ring slot no op has occupied yet.
    const VACANT: Op = Op {
        seq: 0,
        kind: OpKind::IntSimple,
        fx: 0,
        pred: None,
        mem_addr: 0,
        dst: None,
        latency: 0,
        src_producers: [0; 2],
        pending: 0,
        dispatch_cycle: 0,
        min_issue_cycle: 0,
        ready_at: 0,
        issue_cycle: 0,
        finish_cycle: u64::MAX,
        verify_cycle: u64::MAX,
        spec_srcs: 0,
        operand_wait: 0,
        squashed_once: false,
    };

    /// An incorrectly-predicted load whose verification has not squashed
    /// its dependents yet.
    fn squash_due(&self) -> bool {
        self.pred == Some(PredOutcome::Incorrect) && !self.squashed_once
    }
}

/// The out-of-order window: a ring of ops plus, as [`SlotSet`]s over its
/// slots, the state the scheduler works from, so that per-cycle work
/// follows the cycle's events rather than the window size.
struct Window<B> {
    /// Power-of-two ring indexed by `seq & mask`.
    ring: Vec<Op>,
    /// `deps[p]`: the in-window ops that read slot `p`'s result.
    deps: Vec<B>,
    mask: usize,
    /// Sequence number of the oldest in-window op. The first op is 1, so
    /// that 0 can stand for "no producer".
    head: u64,
    /// Sequence number of the next op to dispatch.
    tail: u64,
    issued: B,
    /// Value-predicted loads: consumers read their value from dispatch on
    /// and never wait for them.
    forwarding: B,
    /// Ops holding a reservation station: every waiting op, and issued
    /// ops until they release it.
    holds_rs: B,
    /// Issued ops holding their station because they consumed a
    /// speculative value.
    spec_held: B,
    /// Issued ops with [`Op::squash_due`].
    squash_pending: B,
    /// Per FU class, the *armed* ops: waiting with no pending source. A
    /// waiting op holds a reservation station, so a set never outgrows
    /// its class.
    armed: [B; 5],
    rs_used: [usize; 5],
}

impl<B: SlotSet> Window<B> {
    /// A window over a ring of `slots` slots (a power of two).
    fn new(slots: usize) -> Window<B> {
        let empty = B::empty(slots);
        Window {
            ring: vec![Op::VACANT; slots],
            deps: vec![empty.clone(); slots],
            mask: slots - 1,
            head: 1,
            tail: 1,
            issued: empty.clone(),
            forwarding: empty.clone(),
            holds_rs: empty.clone(),
            spec_held: empty.clone(),
            squash_pending: empty.clone(),
            armed: std::array::from_fn(|_| empty.clone()),
            rs_used: [0; 5],
        }
    }

    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.mask
    }

    #[inline]
    fn head_slot(&self) -> usize {
        self.slot(self.head)
    }

    /// Appends `op` at the tail. Its producers, all in the window, are
    /// the ones dispatch just read: the op joins their dependency rows,
    /// and its pending sources and earliest issue cycle come from their
    /// state.
    #[inline]
    fn push(&mut self, mut op: Op, forwards: bool) {
        let t = self.slot(self.tail);
        debug_assert!(!self.holds_rs.contains(t) && !self.squash_pending.contains(t));
        self.deps[t].clear();
        let mut ready_at = op.dispatch_cycle + 1;
        for (k, p) in op.src_producers.into_iter().enumerate() {
            if p < self.head {
                continue;
            }
            let j = self.slot(p);
            self.deps[j].insert(t);
            if self.forwarding.contains(j) {
                continue;
            }
            if self.issued.contains(j) {
                ready_at = ready_at.max(self.ring[j].finish_cycle);
            } else {
                op.pending |= 1 << k;
            }
        }
        op.ready_at = ready_at;
        let fx = usize::from(op.fx);
        self.issued.remove(t);
        if forwards {
            self.forwarding.insert(t);
        } else {
            self.forwarding.remove(t);
        }
        self.holds_rs.insert(t);
        if op.pending == 0 {
            self.armed[fx].insert(t);
        }
        self.rs_used[fx] += 1;
        self.ring[t] = op;
        self.tail += 1;
    }

    /// Recomputes a waiting op's pending sources and `ready_at` from the
    /// current state of its producers. Retired producers supply
    /// architectural values; forwarding producers are available from
    /// dispatch.
    fn refresh(&mut self, s: usize) {
        let op = &self.ring[s];
        let mut pending = 0;
        let mut ready_at = (op.dispatch_cycle + 1).max(op.min_issue_cycle);
        for (k, p) in op.src_producers.into_iter().enumerate() {
            let j = self.slot(p);
            if p < self.head || self.forwarding.contains(j) {
                continue;
            }
            if self.issued.contains(j) {
                ready_at = ready_at.max(self.ring[j].finish_cycle);
            } else {
                pending |= 1 << k;
            }
        }
        let op = &mut self.ring[s];
        op.pending = pending;
        op.ready_at = ready_at;
        let armed = &mut self.armed[usize::from(op.fx)];
        if pending == 0 {
            armed.insert(s);
        } else {
            armed.remove(s);
        }
    }

    /// The oldest member of `set` whose operands are ready at `cycle`:
    /// the one a single-unit class issues.
    fn first_ready(&self, set: &B, cycle: u64) -> Option<usize> {
        set.walk(self.head_slot())
            .find(|&s| self.ring[s].ready_at <= cycle)
    }

    /// Whether every speculative source of `s` has verified by `cycle`
    /// (retired sources count as verified; an unissued load's
    /// `verify_cycle` is `u64::MAX`).
    fn spec_sources_verified(&self, s: usize, cycle: u64) -> bool {
        let op = &self.ring[s];
        (0..2).filter(|k| op.spec_srcs & (1 << k) != 0).all(|k| {
            let p = op.src_producers[k];
            p < self.head || self.ring[self.slot(p)].verify_cycle <= cycle
        })
    }

    /// Issues armed op `s` at `cycle`: records its operand wait and
    /// speculative sources and, unless it forwards, wakes its consumers.
    /// Woken consumers join their armed sets at once; the issue stage
    /// walks the sets as they stood when it began.
    #[inline(always)]
    fn issue(&mut self, s: usize, cycle: u64, finish: u64, verify: u64) {
        let op = &self.ring[s];
        let (seq, fx, dispatch_cycle) = (op.seq, usize::from(op.fx), op.dispatch_cycle);
        let mut avail = dispatch_cycle;
        let mut spec_srcs = 0;
        for (k, p) in op.src_producers.into_iter().enumerate() {
            if p < self.head {
                continue; // a retired producer adds no wait
            }
            let j = self.slot(p);
            let prod = &self.ring[j];
            if self.forwarding.contains(j) {
                // Speculative if consumed before the load verified.
                if cycle < prod.verify_cycle {
                    spec_srcs |= 1 << k;
                }
                avail = avail.max(prod.dispatch_cycle);
            } else {
                avail = avail.max(prod.finish_cycle);
            }
        }
        let op = &mut self.ring[s];
        op.issue_cycle = cycle;
        op.finish_cycle = finish;
        op.verify_cycle = verify;
        op.operand_wait = avail - dispatch_cycle;
        op.spec_srcs = spec_srcs;
        if op.squash_due() {
            self.squash_pending.insert(s);
        }
        self.issued.insert(s);
        self.armed[fx].remove(s);
        if spec_srcs != 0 {
            self.spec_held.insert(s);
        }
        if self.forwarding.contains(s) {
            return;
        }
        for c in self.deps[s].walk(0) {
            debug_assert!(!self.issued.contains(c));
            let consumer = &mut self.ring[c];
            debug_assert!(consumer.pending != 0);
            for k in 0..2 {
                if consumer.src_producers[k] == seq {
                    consumer.pending &= !(1 << k);
                }
            }
            consumer.ready_at = consumer.ready_at.max(finish);
            if consumer.pending == 0 {
                self.armed[usize::from(consumer.fx)].insert(c);
            }
        }
    }

    /// On an incorrect load's verification, returns every issued
    /// transitive dependent that consumed the wrong value to waiting (it
    /// may reissue from `cycle`): the load's direct consumers that issued
    /// before its value returned, closed over `deps[..] & issued`. Then
    /// recomputes the squashed ops and their consumers.
    fn squash_dependents(&mut self, load: usize, load_finish: u64, cycle: u64) {
        let mut frontier = B::empty(self.mask + 1);
        for c in self.deps[load].walk(0) {
            if self.issued.contains(c) && self.ring[c].issue_cycle < load_finish {
                frontier.insert(c);
            }
        }
        // Transitive dependents of squashed ops always squash: their input
        // was wrong.
        let mut squashed = frontier.clone();
        while !frontier.is_empty() {
            let mut next = B::empty(self.mask + 1);
            for s in frontier.walk(0) {
                next.union_with(&self.deps[s]);
            }
            next.intersect_with(&self.issued);
            next.subtract(&squashed);
            squashed.union_with(&next);
            frontier = next;
        }
        let mut stale = squashed.clone();
        for c in squashed.walk(0) {
            stale.union_with(&self.deps[c]);
            let op = &mut self.ring[c];
            op.min_issue_cycle = cycle;
            op.spec_srcs = 0;
            op.finish_cycle = u64::MAX;
            op.verify_cycle = u64::MAX;
            let fx = usize::from(op.fx);
            self.issued.remove(c);
            self.spec_held.remove(c);
            self.squash_pending.remove(c);
            // A waiting op holds a reservation station.
            if !self.holds_rs.contains(c) {
                self.holds_rs.insert(c);
                self.rs_used[fx] += 1;
            }
        }
        for s in stale.walk(0) {
            self.refresh(s);
        }
    }
}

/// Runs the 620-class model over a trace.
///
/// `outcomes` carries one [`PredOutcome`] per dynamic load (from
/// [`lvp_predictor::LvpUnit::annotate`], under any
/// [`lvp_predictor::PredictorKind`]); pass `None` for the no-LVP
/// baseline. The model reads only these verdicts — never the
/// predictor's tables — so every backend is costed identically.
///
/// The scheduler is event-driven (DESIGN.md §8.1). The window is a ring
/// whose state — issued, forwarding, holding a reservation station,
/// armed per FU class — is kept as bitsets over its slots, and each slot
/// has a row of the slots that read it. A waiting op's earliest issue
/// cycle is fixed when its last non-forwarded producer issues. Issue
/// runs one loop per FU class over its armed ops in window order; RS
/// release, incorrect-load squashes and retirement each work from a
/// set; idle stretches are skipped to the next event. Completion
/// buffers of up to 64 entries run on one-word sets, wider ones on
/// multi-word sets through the same code. Results are bit-identical to
/// the cycle-by-cycle reference model kept in the test module.
///
/// # Panics
///
/// Panics if `outcomes` is `Some` but shorter than the trace's load
/// count, or if the model stops making progress (an internal bug).
pub fn simulate_620(
    trace: &Trace,
    outcomes: Option<&[PredOutcome]>,
    config: &Ppc620Config,
) -> SimResult {
    if config.completion_buffer <= 64 {
        run::<u64>(trace, outcomes, config, 64)
    } else {
        let slots = config.completion_buffer.next_power_of_two();
        run::<WideSet>(trace, outcomes, config, slots)
    }
}

/// [`simulate_620`] on a window of `slots` ring slots.
fn run<B: SlotSet>(
    trace: &Trace,
    outcomes: Option<&[PredOutcome]>,
    config: &Ppc620Config,
    slots: usize,
) -> SimResult {
    const SCFX: usize = Fu::Scfx as usize;
    const MCFX: usize = Fu::Mcfx as usize;
    const FPU: usize = Fu::Fpu as usize;
    const LSU: usize = Fu::Lsu as usize;
    const BRU: usize = Fu::Bru as usize;

    let mut result = SimResult::default();
    let mut bp = BranchPredictor::new(2048, 256);
    let mut mem = MemHierarchy::new(config.l1, config.l2, config.mem_latency);
    let mut banks = BankArbiter::new();

    // Dispatch looks at the next entry and may stall before taking it.
    let mut entries = trace.iter();
    let mut next_entry = entries.next();
    let mut next_dispatch = 0usize; // entries dispatched so far
    let mut load_index = 0usize;

    let mut w = Window::<B>::new(slots);
    // The in-flight producer of each register, 0 for none.
    let mut reg_producer = [0u64; 64];
    let rs_cap = config.rs_per_class;
    let scfx_units = config.units(Fu::Scfx);
    let lsu_units = config.units(Fu::Lsu);

    let mut gpr_free = config.gpr_renames;
    let mut fpr_free = config.fpr_renames;

    // Unpipelined-unit busy-until cycles.
    let mut mcfx_busy: u64 = 0;
    let mut fpu_complex_busy: u64 = 0;
    // Fill times of in-flight L1 misses (the MSHRs).
    let mut mshr_fill: Vec<u64> = Vec::new();

    // Branch redirect state: the ring slot of the unresolved mispredicted
    // branch (it cannot retire, so cannot lose its slot, before issuing).
    let mut pending_gate: Option<usize> = None;
    let mut dispatch_blocked_until: u64 = 0;

    let mut cycle: u64 = 0;
    let mut last_progress: (u64, (u64, usize)) = (0, (w.head, 0));

    while next_entry.is_some() || w.len() > 0 {
        // Whether this cycle changed any state; when a full cycle changes
        // none, every future change is gated on a known event cycle and
        // the idle stretch can be skipped wholesale (see below).
        let mut active = false;

        // ---- 1. squashes of incorrect loads verifying this cycle ----
        // In window order: a load squashed by an earlier one this cycle
        // waits again (its `verify_cycle` is reset) and does not squash.
        if !w.squash_pending.is_empty() {
            for s in w.squash_pending.walk(w.head_slot()) {
                let op = &mut w.ring[s];
                if op.verify_cycle != cycle {
                    continue;
                }
                op.squashed_once = true;
                let finish = op.finish_cycle;
                w.squash_pending.remove(s);
                w.squash_dependents(s, finish, cycle);
                active = true;
            }
        }

        // ---- 2. release reservation stations ----
        // Ops issued in an earlier cycle release now, unless they consumed
        // a speculative value that has not verified yet.
        let mut held = w.holds_rs.clone();
        held.intersect_with(&w.issued);
        for s in held.walk(0) {
            if w.spec_held.contains(s) && !w.spec_sources_verified(s, cycle) {
                continue;
            }
            w.holds_rs.remove(s);
            w.spec_held.remove(s);
            w.rs_used[usize::from(w.ring[s].fx)] -= 1;
            active = true;
        }

        // ---- 3. in-order completion ----
        let mut retired = 0usize;
        while retired < config.width && w.len() > 0 {
            // A waiting op holds its station, and verification never
            // precedes finishing. A speculative source precedes the head,
            // so it has retired: an op whose RS is released is ready to
            // complete once it verifies.
            let h = w.head_slot();
            let s = &w.ring[h];
            if w.holds_rs.contains(h) || s.verify_cycle > cycle {
                break;
            }
            retired += 1;
            result.instructions += 1;
            result.operand_wait.record(s.kind, s.operand_wait);
            if s.kind == OpKind::Store {
                // The store drains from the store queue into its bank.
                banks.claim(s.mem_addr, cycle);
            }
            if let Some(d) = s.dst.map(usize::from) {
                if reg_producer[d] == w.head {
                    reg_producer[d] = 0;
                }
                if d < 32 {
                    gpr_free += 1;
                } else {
                    fpr_free += 1;
                }
            }
            if s.kind == OpKind::Load {
                result.loads += 1;
                match s.pred {
                    Some(PredOutcome::Correct) | Some(PredOutcome::Constant) => {
                        result.predicted_loads += 1;
                        result
                            .verify_latency
                            .record(s.verify_cycle.saturating_sub(s.dispatch_cycle));
                        if s.pred == Some(PredOutcome::Constant) {
                            result.constant_loads += 1;
                        }
                    }
                    Some(PredOutcome::Incorrect) => result.mispredicted_loads += 1,
                    _ => {}
                }
            }
            w.head += 1;
        }
        active |= retired > 0;

        // ---- 4. issue ----
        // One loop per FU class over the class's armed ops in window
        // order, as they stood when the stage began: an op woken this
        // cycle cannot issue before the next one. Issuing an op never
        // changes whether an op of a *different* class issues this cycle:
        // a value produced this cycle is available no earlier than the
        // next one, and the structural resources (banks, MSHRs, the
        // unpipelined MCFX/FPU timers, the fetch gate) are each private
        // to one class. Each loop stops at its class's last free unit.
        if !mshr_fill.is_empty() {
            mshr_fill.retain(|&t| t > cycle);
        }
        let head = w.head_slot();
        let armed = w.armed.clone();
        if !armed[SCFX].is_empty() {
            let mut left = scfx_units;
            for s in armed[SCFX].walk(head) {
                if w.ring[s].ready_at > cycle {
                    continue;
                }
                let finish = cycle + w.ring[s].latency;
                w.issue(s, cycle, finish, finish);
                active = true;
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
        // A busy unpipelined unit closes its whole class this cycle.
        if !armed[MCFX].is_empty() && mcfx_busy <= cycle {
            if let Some(s) = w.first_ready(&armed[MCFX], cycle) {
                let finish = cycle + w.ring[s].latency;
                w.issue(s, cycle, finish, finish);
                mcfx_busy = finish;
                active = true;
            }
        }
        // A complex FP op occupies the single FPU end-to-end.
        if !armed[FPU].is_empty() && fpu_complex_busy <= cycle {
            if let Some(s) = w.first_ready(&armed[FPU], cycle) {
                let op = &w.ring[s];
                let finish = cycle + op.latency;
                if op.kind == OpKind::FpComplex {
                    fpu_complex_busy = finish;
                }
                w.issue(s, cycle, finish, finish);
                active = true;
            }
        }
        if !armed[LSU].is_empty() && lsu_units > 0 {
            let mut left = lsu_units;
            for s in armed[LSU].walk(head) {
                let op = &w.ring[s];
                if op.ready_at > cycle {
                    continue;
                }
                let addr = op.mem_addr;
                let agen_done = cycle + 1;
                let (finish, verify) = if op.kind == OpKind::Store {
                    // Stores only generate their address here; the
                    // data-cache bank is accessed at completion, when the
                    // store drains from the store queue (so loads and
                    // stores contend for banks, as in Section 6.5).
                    result.l1_accesses += 1;
                    if mem.access(addr) > 0 {
                        result.l1_misses += 1;
                    }
                    (agen_done + 1, agen_done + 1)
                } else if op.pred == Some(PredOutcome::Constant) {
                    // CVU verifies without touching the cache.
                    (agen_done + 1, agen_done + 2)
                } else {
                    // A miss needs a free MSHR; a load that finds none
                    // waits without using the LSU's slot.
                    if mshr_fill.len() >= config.mshrs && !mem.probe_l1(addr) {
                        continue;
                    }
                    let granted = banks.claim(addr, agen_done);
                    result.l1_accesses += 1;
                    let extra = mem.access(addr);
                    let finish = granted + 1 + extra;
                    if extra > 0 {
                        result.l1_misses += 1;
                        mshr_fill.push(finish);
                    }
                    (finish, finish + u64::from(w.forwarding.contains(s)))
                };
                w.issue(s, cycle, finish, verify);
                active = true;
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
        if !armed[BRU].is_empty() {
            if let Some(s) = w.first_ready(&armed[BRU], cycle) {
                let finish = cycle + w.ring[s].latency;
                w.issue(s, cycle, finish, finish);
                // A mispredicted branch resolves the fetch gate when it
                // executes: refetch begins after the penalty.
                if pending_gate == Some(s) {
                    dispatch_blocked_until = finish + config.latency.mispredict_penalty;
                    pending_gate = None;
                }
                active = true;
            }
        }

        // ---- 5. dispatch ----
        let mut dispatched = 0usize;
        let mut mem_dispatched = 0usize;
        while dispatched < config.width
            && pending_gate.is_none()
            && cycle >= dispatch_blocked_until
            && w.len() < config.completion_buffer
        {
            let Some(e) = next_entry else { break };
            let fx = fu_of(e.kind) as usize;
            if w.rs_used[fx] >= rs_cap {
                break;
            }
            if e.kind.is_mem() && mem_dispatched >= config.mem_dispatch_per_cycle {
                break;
            }
            // Rename buffer for the destination.
            let dst = e.dst.map(|d| d.flat_index());
            match dst {
                Some(d) if d < 32 && gpr_free == 0 => break,
                Some(d) if d >= 32 && fpr_free == 0 => break,
                _ => {}
            }

            let seq = w.tail;
            // Branch prediction.
            let mut mispredicted = false;
            match e.kind {
                OpKind::CondBranch => {
                    result.branches += 1;
                    let taken = e.branch.expect("branch entry must carry outcome").taken;
                    let predicted = bp.predict_taken(e.pc);
                    bp.update_taken(e.pc, taken);
                    if predicted != taken {
                        result.mispredicts += 1;
                        mispredicted = true;
                    }
                }
                OpKind::IndirectJump => {
                    let target = e.branch.expect("jump entry must carry target").target;
                    let hit = bp.predict_target(e.pc) == Some(target);
                    bp.update_target(e.pc, target);
                    if !hit {
                        result.mispredicts += 1;
                        mispredicted = true;
                    }
                }
                _ => {}
            }

            // LVP annotation for loads.
            let pred = if e.kind == OpKind::Load {
                let p = outcomes.map(|o| o[load_index]);
                load_index += 1;
                p
            } else {
                None
            };

            // Register producers point only at in-window ops: retirement
            // clears them.
            let mut src_producers = [0; 2];
            for (k, src) in e.srcs.into_iter().enumerate() {
                if let Some(r) = src {
                    src_producers[k] = reg_producer[r.flat_index()];
                }
            }
            if let Some(d) = dst {
                reg_producer[d] = seq;
                if d < 32 {
                    gpr_free -= 1;
                } else {
                    fpr_free -= 1;
                }
            }

            w.push(
                Op {
                    seq,
                    kind: e.kind,
                    fx: fx as u8,
                    pred,
                    mem_addr: e.mem.map_or(0, |m| m.addr),
                    dst: dst.map(|d| d as u8),
                    latency: config.latency.result_latency(e.kind),
                    src_producers,
                    dispatch_cycle: cycle,
                    ..Op::VACANT
                },
                e.kind == OpKind::Load && pred.is_some_and(|p| p.predicted()),
            );
            next_entry = entries.next();
            next_dispatch += 1;
            dispatched += 1;
            if e.kind.is_mem() {
                mem_dispatched += 1;
            }
            if mispredicted {
                pending_gate = Some(w.slot(seq));
                break;
            }
        }
        active |= dispatched > 0;

        // Idle-cycle skipping: a cycle with zero state changes implies
        // every future change is gated on one of the event cycles
        // below, so the idle stretch is skipped in one step. (Finishing
        // is derived from `finish_cycle`, so it is an event, not a
        // change; a waiting op's event is its `ready_at`.) The jump
        // lands *exactly* on the earliest event — squash timing
        // requires `verify_cycle == cycle` — and waking early is
        // harmless (the cycle is idle again), so taking the minimum
        // over a superset of the live events is safe.
        let mut next_cycle = cycle + 1;
        if !active {
            let mut event = u64::MAX;
            for seq in w.head..w.tail {
                let s = w.slot(seq);
                let op = &w.ring[s];
                let e = if !w.issued.contains(s) {
                    op.ready_at
                } else if op.finish_cycle > cycle {
                    op.finish_cycle
                } else {
                    op.verify_cycle
                };
                if e > cycle && e < event {
                    event = e;
                }
            }
            for &t in [mcfx_busy, fpu_complex_busy].iter().chain(&mshr_fill) {
                if t > cycle && t < event {
                    event = t;
                }
            }
            if next_entry.is_some() && dispatch_blocked_until > cycle {
                event = event.min(dispatch_blocked_until);
            }
            if event != u64::MAX {
                // Never skip past the progress guard's horizon, so a
                // genuine deadlock still panics at the same cycle the
                // cycle-by-cycle model would.
                next_cycle = event.min(last_progress.0 + 100_001);
            }
        }
        cycle = next_cycle;
        // Progress guard against model deadlocks.
        if (w.head, next_dispatch) != last_progress.1 {
            last_progress = (cycle, (w.head, next_dispatch));
        } else if cycle - last_progress.0 > 100_000 {
            panic!(
                "620 model deadlock at cycle {cycle}: window head {:?}",
                (w.len() > 0).then(|| w.ring[w.head_slot()])
            );
        }
    }

    result.cycles = cycle;
    result.l2_accesses = mem.l2_accesses();
    result.bank_conflict_cycles = banks.conflict_cycles();
    result
}

#[cfg(test)]
mod reference {
    //! The original cycle-by-cycle, split-pass implementation of
    //! [`simulate_620`], kept verbatim as a differential oracle: the
    //! event-driven model (bitset window, dependency rows, per-class
    //! issue loops, idle-cycle skipping) must produce bit-identical
    //! [`SimResult`]s. Every cycle it rescans the whole window for
    //! squashes, finishes, RS releases and, once per FU class, issue
    //! candidates.
    use super::*;

    const FU_KINDS: [Fu; 5] = [Fu::Scfx, Fu::Mcfx, Fu::Fpu, Fu::Lsu, Fu::Bru];

    #[derive(Debug, Copy, Clone, PartialEq, Eq)]
    enum State {
        Waiting,
        Executing,
        Finished,
    }

    #[derive(Debug, Clone)]
    struct Slot {
        seq: u64,
        kind: OpKind,
        fu: Fu,
        pred: Option<PredOutcome>,
        mem_addr: u64,
        dst: Option<usize>,
        src_producers: [Option<u64>; 2],
        state: State,
        dispatch_cycle: u64,
        min_issue_cycle: u64,
        issue_cycle: u64,
        finish_cycle: u64,
        /// For predicted loads: finish + 1; otherwise == finish.
        verify_cycle: u64,
        /// Sequence numbers of speculative (predicted-load) sources this
        /// slot consumed; RS release and retirement wait until they all
        /// verify.
        spec_srcs: [Option<u64>; 2],
        issued_spec: bool,
        holds_rs: bool,
        operand_wait: u64,
        squashed_once: bool,
    }

    /// The cycle a producer's value became available, or `None` if it is
    /// not yet available. Predicted loads forward speculatively from
    /// dispatch.
    fn producer_available(prod: &Slot, cycle: u64) -> Option<u64> {
        if prod.kind == OpKind::Load && prod.pred.is_some_and(|p| p.predicted()) {
            return Some(prod.dispatch_cycle);
        }
        if prod.state != State::Waiting && prod.finish_cycle <= cycle {
            Some(prod.finish_cycle)
        } else {
            None
        }
    }

    pub(super) fn simulate_620_reference(
        trace: &Trace,
        outcomes: Option<&[PredOutcome]>,
        config: &Ppc620Config,
    ) -> SimResult {
        let mut result = SimResult::default();
        let mut bp = BranchPredictor::new(2048, 256);
        let mut mem = MemHierarchy::new(config.l1, config.l2, config.mem_latency);
        let mut banks = BankArbiter::new();

        let mut entries = trace.iter();
        let mut next_entry = entries.next();
        let mut next_dispatch = 0usize;
        let mut load_index = 0usize;

        let mut window: Vec<Slot> = Vec::with_capacity(config.completion_buffer);
        let mut head_seq: u64 = 0;
        let mut reg_producer: [Option<u64>; 64] = [None; 64];

        let mut rs_used = [0usize; 5];
        let rs_cap = config.rs_per_class;
        let fu_index = |fu: Fu| FU_KINDS.iter().position(|&f| f == fu).unwrap();

        let mut gpr_free = config.gpr_renames;
        let mut fpr_free = config.fpr_renames;

        let mut mcfx_busy: u64 = 0;
        let mut fpu_complex_busy: u64 = 0;
        let mut mshr_fill: Vec<u64> = Vec::new();

        let mut pending_gate: Option<u64> = None;
        let mut dispatch_blocked_until: u64 = 0;

        let mut cycle: u64 = 0;
        let mut last_progress: (u64, (u64, usize)) = (0, (0, 0));

        while next_entry.is_some() || !window.is_empty() {
            // ---- 1. process verifications & squashes scheduled this cycle ----
            for i in 0..window.len() {
                let (incorrect, vc, lseq, lfinish) = {
                    let s = &window[i];
                    (
                        s.pred == Some(PredOutcome::Incorrect) && !s.squashed_once,
                        s.verify_cycle,
                        s.seq,
                        s.finish_cycle,
                    )
                };
                if incorrect && window[i].state == State::Finished && vc == cycle {
                    window[i].squashed_once = true;
                    squash_dependents(&mut window, lseq, lfinish, cycle, &mut rs_used);
                }
            }

            // ---- 2. executing -> finished ----
            for s in window.iter_mut() {
                if s.state == State::Executing && s.finish_cycle <= cycle {
                    s.state = State::Finished;
                }
            }

            // ---- 3. release reservation stations ----
            for i in 0..window.len() {
                let s = &window[i];
                if !s.holds_rs || s.state == State::Waiting || s.issue_cycle > cycle {
                    continue;
                }
                if s.issued_spec && !spec_sources_verified(&window, head_seq, i, cycle) {
                    continue;
                }
                let fu = window[i].fu;
                window[i].holds_rs = false;
                rs_used[fu_index(fu)] -= 1;
            }

            // ---- 4. in-order completion ----
            let mut retired = 0usize;
            while retired < config.width && !window.is_empty() {
                let s = &window[0];
                let can_retire = s.state == State::Finished
                    && cycle >= s.verify_cycle
                    && !s.holds_rs
                    && (!s.issued_spec || spec_sources_verified(&window, head_seq, 0, cycle));
                if !can_retire {
                    break;
                }
                let s = window.remove(0);
                head_seq += 1;
                retired += 1;
                result.instructions += 1;
                result.operand_wait.record(s.kind, s.operand_wait);
                if s.kind == OpKind::Store {
                    banks.claim(s.mem_addr, cycle);
                }
                if let Some(d) = s.dst {
                    if reg_producer[d] == Some(s.seq) {
                        reg_producer[d] = None;
                    }
                    if d < 32 {
                        gpr_free += 1;
                    } else {
                        fpr_free += 1;
                    }
                }
                if s.kind == OpKind::Load {
                    result.loads += 1;
                    match s.pred {
                        Some(PredOutcome::Correct) | Some(PredOutcome::Constant) => {
                            result.predicted_loads += 1;
                            result
                                .verify_latency
                                .record(s.verify_cycle.saturating_sub(s.dispatch_cycle));
                            if s.pred == Some(PredOutcome::Constant) {
                                result.constant_loads += 1;
                            }
                        }
                        Some(PredOutcome::Incorrect) => result.mispredicted_loads += 1,
                        _ => {}
                    }
                }
            }

            // ---- 5. issue ----
            for fu in FU_KINDS {
                let mut issued = 0usize;
                let units = config.units(fu);
                let mut i = 0;
                while issued < units && i < window.len() {
                    let ready = {
                        let s = &window[i];
                        s.fu == fu
                            && s.state == State::Waiting
                            && s.dispatch_cycle < cycle
                            && s.min_issue_cycle <= cycle
                            && operands_ready(&window, head_seq, i, cycle)
                    };
                    if !ready {
                        i += 1;
                        continue;
                    }
                    match fu {
                        Fu::Mcfx if mcfx_busy > cycle => break,
                        Fu::Fpu if fpu_complex_busy > cycle => break,
                        _ => {}
                    }
                    let (op_wait, spec_srcs, is_spec) =
                        operand_wait_info(&window, head_seq, i, cycle);
                    let (finish, verify) = {
                        let s = &window[i];
                        match s.kind {
                            OpKind::Load => {
                                let agen_done = cycle + 1;
                                if s.pred == Some(PredOutcome::Constant) {
                                    let fin = agen_done + 1;
                                    (fin, fin + 1)
                                } else {
                                    mshr_fill.retain(|&t| t > cycle);
                                    if mshr_fill.len() >= config.mshrs && !mem.probe_l1(s.mem_addr)
                                    {
                                        i += 1;
                                        continue;
                                    }
                                    let granted = banks.claim(s.mem_addr, agen_done);
                                    result.l1_accesses += 1;
                                    let extra = mem.access(s.mem_addr);
                                    if extra > 0 {
                                        result.l1_misses += 1;
                                        mshr_fill.push(granted + 1 + extra);
                                    }
                                    let fin = granted + 1 + extra;
                                    let ver = if s.pred.is_some_and(|p| p.predicted()) {
                                        fin + 1
                                    } else {
                                        fin
                                    };
                                    (fin, ver)
                                }
                            }
                            OpKind::Store => {
                                let agen_done = cycle + 1;
                                result.l1_accesses += 1;
                                let extra = mem.access(s.mem_addr);
                                if extra > 0 {
                                    result.l1_misses += 1;
                                }
                                let fin = agen_done + 1;
                                (fin, fin)
                            }
                            kind => {
                                let fin = cycle + config.latency.result_latency(kind);
                                (fin, fin)
                            }
                        }
                    };
                    {
                        let s = &mut window[i];
                        s.state = State::Executing;
                        s.issue_cycle = cycle;
                        s.finish_cycle = finish;
                        s.verify_cycle = verify;
                        s.operand_wait = op_wait;
                        s.issued_spec = is_spec;
                        s.spec_srcs = spec_srcs;
                        match fu {
                            Fu::Mcfx => mcfx_busy = finish,
                            Fu::Fpu if s.kind == OpKind::FpComplex => fpu_complex_busy = finish,
                            _ => {}
                        }
                        if pending_gate == Some(s.seq) {
                            dispatch_blocked_until = finish + config.latency.mispredict_penalty;
                            pending_gate = None;
                        }
                    }
                    issued += 1;
                    i += 1;
                }
            }

            // ---- 6. dispatch ----
            let mut dispatched = 0usize;
            let mut mem_dispatched = 0usize;
            while dispatched < config.width
                && pending_gate.is_none()
                && cycle >= dispatch_blocked_until
                && window.len() < config.completion_buffer
            {
                let Some(e) = next_entry else { break };
                let fu = fu_of(e.kind);
                if rs_used[fu_index(fu)] >= rs_cap {
                    break;
                }
                if e.kind.is_mem() && mem_dispatched >= config.mem_dispatch_per_cycle {
                    break;
                }
                let dst = e.dst.map(|d| d.flat_index());
                match dst {
                    Some(d) if d < 32 && gpr_free == 0 => break,
                    Some(d) if d >= 32 && fpr_free == 0 => break,
                    _ => {}
                }

                let seq = head_seq + window.len() as u64;
                let mut mispredicted = false;
                match e.kind {
                    OpKind::CondBranch => {
                        result.branches += 1;
                        let taken = e.branch.expect("branch entry must carry outcome").taken;
                        let predicted = bp.predict_taken(e.pc);
                        bp.update_taken(e.pc, taken);
                        if predicted != taken {
                            result.mispredicts += 1;
                            mispredicted = true;
                        }
                    }
                    OpKind::IndirectJump => {
                        let target = e.branch.expect("jump entry must carry target").target;
                        let hit = bp.predict_target(e.pc) == Some(target);
                        bp.update_target(e.pc, target);
                        if !hit {
                            result.mispredicts += 1;
                            mispredicted = true;
                        }
                    }
                    _ => {}
                }

                let pred = if e.kind == OpKind::Load {
                    let p = outcomes.map(|o| o[load_index]);
                    load_index += 1;
                    p
                } else {
                    None
                };

                let mut src_producers = [None, None];
                for (k, src) in e.srcs.into_iter().enumerate() {
                    if let Some(r) = src {
                        src_producers[k] = reg_producer[r.flat_index()];
                    }
                }
                if let Some(d) = dst {
                    reg_producer[d] = Some(seq);
                    if d < 32 {
                        gpr_free -= 1;
                    } else {
                        fpr_free -= 1;
                    }
                }
                rs_used[fu_index(fu)] += 1;

                window.push(Slot {
                    seq,
                    kind: e.kind,
                    fu,
                    pred,
                    mem_addr: e.mem.map_or(0, |m| m.addr),
                    dst,
                    src_producers,
                    state: State::Waiting,
                    dispatch_cycle: cycle,
                    min_issue_cycle: 0,
                    issue_cycle: 0,
                    finish_cycle: u64::MAX,
                    verify_cycle: u64::MAX,
                    spec_srcs: [None, None],
                    issued_spec: false,
                    holds_rs: true,
                    operand_wait: 0,
                    squashed_once: false,
                });
                next_entry = entries.next();
                next_dispatch += 1;
                dispatched += 1;
                if e.kind.is_mem() {
                    mem_dispatched += 1;
                }
                if mispredicted {
                    pending_gate = Some(seq);
                    break;
                }
            }

            cycle += 1;
            if (head_seq, next_dispatch) != last_progress.1 {
                last_progress = (cycle, (head_seq, next_dispatch));
            } else if cycle - last_progress.0 > 100_000 {
                panic!(
                    "620 reference model deadlock at cycle {cycle}: window head {:?}",
                    window.first()
                );
            }
        }

        result.cycles = cycle;
        result.l2_accesses = mem.l2_accesses();
        result.bank_conflict_cycles = banks.conflict_cycles();
        result
    }

    fn operands_ready(window: &[Slot], head_seq: u64, i: usize, cycle: u64) -> bool {
        let s = &window[i];
        for p in s.src_producers.iter().flatten() {
            if *p < head_seq {
                continue;
            }
            let prod = &window[(*p - head_seq) as usize];
            if producer_available(prod, cycle).is_none() {
                return false;
            }
        }
        true
    }

    fn spec_sources_verified(window: &[Slot], head_seq: u64, i: usize, cycle: u64) -> bool {
        for p in window[i].spec_srcs.iter().flatten() {
            if *p < head_seq {
                continue;
            }
            let prod = &window[(*p - head_seq) as usize];
            if prod.state != State::Finished || prod.verify_cycle > cycle {
                return false;
            }
        }
        true
    }

    fn operand_wait_info(
        window: &[Slot],
        head_seq: u64,
        i: usize,
        cycle: u64,
    ) -> (u64, [Option<u64>; 2], bool) {
        let s = &window[i];
        let mut avail = s.dispatch_cycle;
        let mut spec_srcs = [None, None];
        let mut is_spec = false;
        for (k, p) in s.src_producers.iter().enumerate() {
            let Some(p) = p else { continue };
            if *p < head_seq {
                continue;
            }
            let prod = &window[(*p - head_seq) as usize];
            if prod.kind == OpKind::Load && prod.pred.is_some_and(|q| q.predicted()) {
                if prod.state == State::Waiting || cycle < prod.verify_cycle {
                    is_spec = true;
                    spec_srcs[k] = Some(*p);
                }
                avail = avail.max(prod.dispatch_cycle);
            } else {
                avail = avail.max(prod.finish_cycle);
            }
        }
        (avail.saturating_sub(s.dispatch_cycle), spec_srcs, is_spec)
    }

    fn squash_dependents(
        window: &mut [Slot],
        producer_seq: u64,
        producer_finish: u64,
        verify_cycle: u64,
        rs_used: &mut [usize; 5],
    ) {
        let mut to_squash: Vec<u64> = vec![producer_seq];
        let mut k = 0;
        while k < to_squash.len() {
            let pseq = to_squash[k];
            k += 1;
            for s in window.iter_mut() {
                let depends = s.src_producers.iter().flatten().any(|&p| p == pseq);
                if !depends || s.state == State::Waiting {
                    continue;
                }
                if pseq == producer_seq && s.issue_cycle >= producer_finish {
                    continue;
                }
                let seq = s.seq;
                s.state = State::Waiting;
                s.min_issue_cycle = verify_cycle;
                s.issued_spec = false;
                s.spec_srcs = [None, None];
                s.finish_cycle = u64::MAX;
                s.verify_cycle = u64::MAX;
                if !s.holds_rs {
                    s.holds_rs = true;
                    let fu = s.fu;
                    rs_used[FU_KINDS.iter().position(|&f| f == fu).unwrap()] += 1;
                }
                to_squash.push(seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{BranchEvent, MemAccess, RegRef, TraceEntry};

    fn alu(pc: u64, dst: u8, srcs: [Option<u8>; 2]) -> TraceEntry {
        TraceEntry {
            pc,
            kind: OpKind::IntSimple,
            dst: Some(RegRef::int(dst)),
            srcs: [srcs[0].map(RegRef::int), srcs[1].map(RegRef::int)],
            mem: None,
            branch: None,
        }
    }

    fn load(pc: u64, dst: u8, addr: u64) -> TraceEntry {
        TraceEntry {
            pc,
            kind: OpKind::Load,
            dst: Some(RegRef::int(dst)),
            srcs: [Some(RegRef::int(2)), None],
            mem: Some(MemAccess {
                addr,
                width: 8,
                value: 1,
                fp: false,
            }),
            branch: None,
        }
    }

    fn run(entries: &[TraceEntry], outcomes: Option<&[PredOutcome]>) -> SimResult {
        let trace: Trace = entries.iter().copied().collect();
        simulate_620(&trace, outcomes, &Ppc620Config::base())
    }

    /// Deterministic 64-bit LCG (Knuth MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    /// A random but structurally valid instruction mix: ALU chains,
    /// complex int/FP ops, loads/stores over hit- and miss-prone
    /// addresses, and poorly predictable branches.
    fn random_trace(seed: u64, n: usize) -> Trace {
        let mut rng = Lcg(seed);
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let r = rng.next();
            let pc = 0x1_0000 + 4 * (r % 97);
            let dst = (10 + (r >> 8) % 8) as u8;
            let src = (10 + (r >> 16) % 8) as u8;
            let e = match r % 100 {
                0..=39 => TraceEntry {
                    pc,
                    kind: OpKind::IntSimple,
                    dst: Some(RegRef::int(dst)),
                    srcs: [Some(RegRef::int(src)), None],
                    mem: None,
                    branch: None,
                },
                40..=49 => TraceEntry {
                    pc,
                    kind: OpKind::IntComplex,
                    dst: Some(RegRef::int(dst)),
                    srcs: [Some(RegRef::int(src)), Some(RegRef::int(2))],
                    mem: None,
                    branch: None,
                },
                50..=54 => TraceEntry {
                    pc,
                    kind: OpKind::FpSimple,
                    dst: Some(RegRef::fp(dst)),
                    srcs: [Some(RegRef::fp(src)), None],
                    mem: None,
                    branch: None,
                },
                55..=59 => TraceEntry {
                    pc,
                    kind: OpKind::FpComplex,
                    dst: Some(RegRef::fp(dst)),
                    srcs: [Some(RegRef::fp(src)), Some(RegRef::fp(2))],
                    mem: None,
                    branch: None,
                },
                60..=79 => {
                    // Mix cache-resident and striding (miss-prone) loads.
                    let addr = if r.is_multiple_of(3) {
                        0x10_0000 + ((r >> 24) % 8) * 8
                    } else {
                        0x20_0000 + ((r >> 24) % 512) * 4096
                    };
                    load(pc, dst, addr)
                }
                80..=89 => TraceEntry {
                    pc,
                    kind: OpKind::Store,
                    dst: None,
                    srcs: [Some(RegRef::int(src)), Some(RegRef::int(2))],
                    mem: Some(MemAccess {
                        addr: 0x30_0000 + ((r >> 24) % 64) * 8,
                        width: 8,
                        value: 0,
                        fp: false,
                    }),
                    branch: None,
                },
                _ => TraceEntry {
                    pc,
                    kind: OpKind::CondBranch,
                    dst: None,
                    srcs: [Some(RegRef::int(src)), None],
                    mem: None,
                    branch: Some(BranchEvent {
                        taken: (r >> 32).is_multiple_of(3),
                        target: pc + 8,
                    }),
                },
            };
            entries.push(e);
            let _ = i;
        }
        entries.into_iter().collect()
    }

    /// Random per-load outcome mix covering every [`PredOutcome`].
    fn random_outcomes(seed: u64, loads: usize) -> Vec<PredOutcome> {
        let mut rng = Lcg(seed);
        (0..loads)
            .map(|_| match rng.next() % 10 {
                0..=3 => PredOutcome::Correct,
                4..=5 => PredOutcome::Incorrect,
                6 => PredOutcome::Constant,
                _ => PredOutcome::NotPredicted,
            })
            .collect()
    }

    /// The 620 family `ablation_machine` sweeps: reservation stations,
    /// renames and completion buffer scaled by `factor`.
    fn scaled(name: &'static str, factor: f64, n_lsu: usize, mem_per_cycle: usize) -> Ppc620Config {
        let base = Ppc620Config::base();
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        Ppc620Config {
            name,
            rs_per_class: scale(base.rs_per_class),
            gpr_renames: scale(base.gpr_renames),
            fpr_renames: scale(base.fpr_renames),
            completion_buffer: scale(base.completion_buffer),
            n_lsu,
            mem_dispatch_per_cycle: mem_per_cycle,
            ..base
        }
    }

    /// Every machine the differential oracle runs: the 620 and 620+, the
    /// `ablation_machine` extremes (completion buffers 8 and 64, the
    /// widest one-word window), completion buffers of 65 (one past the
    /// word boundary), 128 and 256 (multi-word windows), and a 620 with a
    /// single MSHR.
    fn oracle_configs() -> Vec<Ppc620Config> {
        vec![
            Ppc620Config::base(),
            Ppc620Config::plus(),
            scaled("620/2", 0.5, 1, 1),
            scaled("620x4", 4.0, 2, 2),
            Ppc620Config {
                name: "620-cb65",
                completion_buffer: 65,
                ..scaled("620x8", 8.0, 2, 2)
            },
            Ppc620Config {
                name: "620-cb128",
                completion_buffer: 128,
                ..scaled("620x8", 8.0, 2, 2)
            },
            Ppc620Config {
                name: "620-cb256",
                completion_buffer: 256,
                ..scaled("620x16", 16.0, 2, 2)
            },
            Ppc620Config {
                name: "620-mshr1",
                mshrs: 1,
                ..Ppc620Config::base()
            },
        ]
    }

    /// The event-driven model must be bit-identical to the preserved
    /// cycle-by-cycle reference on `trace`, on every oracle machine and
    /// under every outcome regime: none, all-Correct, all-Incorrect,
    /// all-Constant and a random mix.
    fn assert_matches_reference(trace: &Trace, label: &str, seed: u64) {
        let loads = trace.stats().loads as usize;
        let outcome_sets: [(&str, Option<Vec<PredOutcome>>); 5] = [
            ("none", None),
            ("correct", Some(vec![PredOutcome::Correct; loads])),
            ("incorrect", Some(vec![PredOutcome::Incorrect; loads])),
            ("constant", Some(vec![PredOutcome::Constant; loads])),
            ("mix", Some(random_outcomes(seed ^ 0x5555, loads))),
        ];
        for config in oracle_configs() {
            for (regime, outcomes) in &outcome_sets {
                let fast = simulate_620(trace, outcomes.as_deref(), &config);
                let slow = reference::simulate_620_reference(trace, outcomes.as_deref(), &config);
                assert_eq!(
                    fast, slow,
                    "divergence: {label}, config {}, outcomes {regime}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn event_driven_matches_reference_on_random_traces() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let trace = random_trace(seed, 3000);
            assert_matches_reference(&trace, &format!("random seed {seed}"), seed);
        }
    }

    /// A serial load → ALU chain: every load's address depends on the
    /// previous load's value.
    #[test]
    fn event_driven_matches_reference_on_serial_chain() {
        let mut entries = Vec::new();
        for i in 0..800u64 {
            entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
            entries.push(alu(0x10004, 2, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        assert_matches_reference(&trace, "serial chain", 7);
    }

    /// A miss-heavy pointer chase next to independent striding loads: the
    /// single-MSHR machine keeps loads waiting for a free MSHR while hits
    /// and other classes issue past them.
    #[test]
    fn event_driven_matches_reference_on_miss_heavy_pointer_chase() {
        let mut entries = Vec::new();
        for i in 0..600u64 {
            // r2 <- [r2]: the chase, each node on its own page.
            entries.push(TraceEntry {
                srcs: [Some(RegRef::int(2)), None],
                ..load(0x10000, 2, 0x40_0000 + i * 4096)
            });
            // An independent miss and a hit off a stable base.
            entries.push(TraceEntry {
                srcs: [Some(RegRef::int(3)), None],
                ..load(0x10004, 11, 0x80_0000 + i * 8192)
            });
            entries.push(TraceEntry {
                srcs: [Some(RegRef::int(3)), None],
                ..load(0x10008, 12, 0x10_0000 + (i % 8) * 8)
            });
            entries.push(alu(0x1000c, 13, [Some(11), Some(12)]));
            entries.push(alu(0x10010, 14, [Some(2), Some(13)]));
        }
        let trace: Trace = entries.into_iter().collect();
        assert_matches_reference(&trace, "pointer chase", 11);
    }

    /// Dense unpipelined work: chains of IntComplex and FpComplex ops fed
    /// by loads, so a busy MCFX or complex-FP unit closes its class.
    #[test]
    fn event_driven_matches_reference_on_complex_op_dense_trace() {
        let mut rng = Lcg(0xC0FFEE);
        let mut entries = Vec::new();
        for i in 0..1500u64 {
            let r = rng.next();
            let (a, b) = ((10 + r % 6) as u8, (10 + (r >> 8) % 6) as u8);
            let e = match r % 5 {
                0 => TraceEntry {
                    kind: OpKind::IntComplex,
                    ..alu(0x10000 + 4 * (i % 32), a, [Some(b), Some(a)])
                },
                1 => TraceEntry {
                    pc: 0x10100 + 4 * (i % 32),
                    kind: OpKind::FpComplex,
                    dst: Some(RegRef::fp(a)),
                    srcs: [Some(RegRef::fp(b)), Some(RegRef::fp(a))],
                    mem: None,
                    branch: None,
                },
                2 => TraceEntry {
                    pc: 0x10200 + 4 * (i % 32),
                    kind: OpKind::FpSimple,
                    dst: Some(RegRef::fp(b)),
                    srcs: [Some(RegRef::fp(a)), None],
                    mem: None,
                    branch: None,
                },
                3 => load(0x10300 + 4 * (i % 32), a, 0x10_0000 + ((r >> 16) % 64) * 8),
                _ => alu(0x10400 + 4 * (i % 32), b, [Some(a), None]),
            };
            entries.push(e);
        }
        let trace: Trace = entries.into_iter().collect();
        assert_matches_reference(&trace, "complex-op dense", 13);
    }

    /// The committed golden-trace fixtures: real compiled suite code.
    #[test]
    fn event_driven_matches_reference_on_fixtures() {
        let fixtures: [(&str, &[u8]); 3] = [
            ("sc", include_bytes!("../../../tests/fixtures/sc_1k.lvpt")),
            (
                "grep",
                include_bytes!("../../../tests/fixtures/grep_1k.lvpt"),
            ),
            (
                "xlisp",
                include_bytes!("../../../tests/fixtures/xlisp_1k.lvpt"),
            ),
        ];
        for (name, bytes) in fixtures {
            let trace = lvp_trace::read_trace(bytes).expect("fixture deserializes");
            assert_matches_reference(&trace, name, 17);
        }
    }

    #[test]
    fn empty_trace() {
        let r = run(&[], None);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let entries: Vec<_> = (0..4000)
            .map(|i| alu(0x10000 + 4 * (i % 64), (i % 8) as u8 + 10, [None, None]))
            .collect();
        let r = run(&entries, None);
        assert_eq!(r.instructions, 4000);
        // 2 SCFX units bound throughput at 2 IPC.
        assert!(r.ipc() > 1.7, "IPC {:.2}", r.ipc());
        assert!(r.ipc() <= 2.05, "IPC {:.2}", r.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let entries: Vec<_> = (0..1000)
            .map(|i| alu(0x10000 + 4 * (i % 64), 10, [Some(10), None]))
            .collect();
        let r = run(&entries, None);
        assert!(
            r.ipc() < 1.1,
            "serial chain cannot exceed 1 IPC: {:.2}",
            r.ipc()
        );
    }

    #[test]
    fn load_use_chain_speeds_up_with_lvp() {
        // A serial pointer-chase: each load's address depends on the ALU
        // result of the previous load's value. With LVP the consumer gets
        // the value at dispatch, collapsing the whole chain.
        let mut entries = Vec::new();
        for i in 0..2000u64 {
            // load r10 <- [r2 + ...], then r2 <- f(r10)
            let mut l = load(0x10000, 10, 0x10_0000 + (i % 4) * 64);
            l.srcs = [Some(RegRef::int(2)), None];
            entries.push(l);
            entries.push(TraceEntry {
                pc: 0x10004,
                kind: OpKind::IntSimple,
                dst: Some(RegRef::int(2)),
                srcs: [Some(RegRef::int(10)), None],
                mem: None,
                branch: None,
            });
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let n_loads = trace.stats().loads as usize;
        let perfect = vec![PredOutcome::Correct; n_loads];
        let lvp = simulate_620(&trace, Some(&perfect), &Ppc620Config::base());
        assert_eq!(base.instructions, lvp.instructions);
        assert!(
            lvp.cycles < base.cycles,
            "LVP must speed up a load-use bound chain: {} vs {}",
            lvp.cycles,
            base.cycles
        );
        assert!(
            lvp.speedup_over(&base) > 1.15,
            "speedup {:.3}",
            lvp.speedup_over(&base)
        );
    }

    #[test]
    fn incorrect_predictions_cost_little() {
        let mut entries = Vec::new();
        for i in 0..1000u64 {
            entries.push(load(0x10000, 10, 0x10_0000 + (i % 4) * 64));
            entries.push(alu(0x10004, 11, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let wrong = vec![PredOutcome::Incorrect; trace.stats().loads as usize];
        let lvp = simulate_620(&trace, Some(&wrong), &Ppc620Config::base());
        // Worst case per the paper: one extra cycle per dependent, plus
        // structural effects. Overall cost must stay small.
        let slowdown = lvp.cycles as f64 / base.cycles as f64;
        assert!(
            slowdown < 1.40,
            "mispredictions too expensive: {slowdown:.3}"
        );
        assert_eq!(lvp.mispredicted_loads, 1000);
    }

    #[test]
    fn constants_avoid_the_cache() {
        let mut entries = Vec::new();
        for _ in 0..500 {
            entries.push(load(0x10000, 10, 0x10_0000));
            entries.push(alu(0x10004, 11, [Some(10), None]));
        }
        let trace: Trace = entries.into_iter().collect();
        let consts = vec![PredOutcome::Constant; 500];
        let r = simulate_620(&trace, Some(&consts), &Ppc620Config::base());
        assert_eq!(r.constant_loads, 500);
        assert_eq!(r.l1_accesses, 0, "constant loads must bypass the cache");
    }

    #[test]
    fn branch_mispredictions_add_bubbles() {
        // Alternating taken/not-taken branch defeats the bimodal predictor.
        let mut entries = Vec::new();
        for i in 0..500u64 {
            entries.push(alu(0x10000, 10, [None, None]));
            entries.push(TraceEntry {
                pc: 0x10004,
                kind: OpKind::CondBranch,
                dst: None,
                srcs: [Some(RegRef::int(10)), None],
                mem: None,
                branch: Some(BranchEvent {
                    taken: i % 2 == 0,
                    target: 0x10008,
                }),
            });
        }
        let alternating: Trace = entries.into_iter().collect();
        let mut entries2 = Vec::new();
        for _ in 0..500u64 {
            entries2.push(alu(0x10000, 10, [None, None]));
            entries2.push(TraceEntry {
                pc: 0x10004,
                kind: OpKind::CondBranch,
                dst: None,
                srcs: [Some(RegRef::int(10)), None],
                mem: None,
                branch: Some(BranchEvent {
                    taken: true,
                    target: 0x10008,
                }),
            });
        }
        let steady: Trace = entries2.into_iter().collect();
        let r1 = simulate_620(&alternating, None, &Ppc620Config::base());
        let r2 = simulate_620(&steady, None, &Ppc620Config::base());
        assert!(r1.mispredicts > r2.mispredicts);
        assert!(r1.cycles > r2.cycles, "{} vs {}", r1.cycles, r2.cycles);
    }

    #[test]
    fn plus_config_is_faster_on_wide_code() {
        // Independent mixed ops with abundant ILP.
        let mut entries = Vec::new();
        for i in 0..3000u64 {
            entries.push(alu(
                0x10000 + 4 * (i % 32),
                (10 + i % 4) as u8,
                [None, None],
            ));
            entries.push(load(
                0x10100 + 4 * (i % 32),
                (14 + i % 4) as u8,
                0x10_0000 + (i % 64) * 8,
            ));
        }
        let trace: Trace = entries.into_iter().collect();
        let base = simulate_620(&trace, None, &Ppc620Config::base());
        let plus = simulate_620(&trace, None, &Ppc620Config::plus());
        assert!(
            plus.cycles < base.cycles,
            "620+ should outperform 620 on ILP-rich code: {} vs {}",
            plus.cycles,
            base.cycles
        );
    }

    #[test]
    fn verify_latency_histogram_populated() {
        let mut entries = Vec::new();
        for _ in 0..100 {
            entries.push(load(0x10000, 10, 0x10_0000));
        }
        let trace: Trace = entries.into_iter().collect();
        let correct = vec![PredOutcome::Correct; 100];
        let r = simulate_620(&trace, Some(&correct), &Ppc620Config::base());
        assert_eq!(r.verify_latency.total(), 100);
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Loads striding far apart miss; same-line loads hit.
        let strided: Trace = (0..2000u64)
            .map(|i| load(0x10000, 10, 0x10_0000 + i * 4096))
            .collect();
        let local: Trace = (0..2000u64)
            .map(|i| load(0x10000, 10, 0x10_0000 + (i % 8) * 8))
            .collect();
        let rs = simulate_620(&strided, None, &Ppc620Config::base());
        let rl = simulate_620(&local, None, &Ppc620Config::base());
        assert!(rs.l1_misses > 1900);
        assert!(rl.l1_misses < 10);
        assert!(rs.cycles > rl.cycles * 2);
    }
}
