//! A hierarchical timing-wheel event queue with an overflow heap.
//!
//! The dispatch loop of a packet-level simulator schedules almost
//! exclusively into the near future: serialisation delays, PCIe/memory
//! latencies and per-packet CPU costs are nanoseconds to microseconds,
//! while only periodic timers (RTO sweeps, memory ticks) and long pacing
//! holds look further ahead. A binary heap pays `O(log n)` comparisons —
//! and moves event payloads across heap levels — on every push and pop
//! regardless of that structure. The wheel exploits it, in three tiers:
//!
//! * a **near ring** of `2^12` slots, each one [`Resolution`] step wide
//!   (1 ns at the default exact resolution, 64 ns in coarse mode), covers
//!   the immediate horizon (~4 µs exact, ~262 µs coarse); pushing inside
//!   it is one index computation plus one linked-list splice, and *every
//!   event in a slot shares one quantised timestamp*, so the engine can
//!   drain a whole slot as one batch;
//! * a **far ring** of `2^12` slots, each `2^10` near-slots wide, covers
//!   the next `2^22` steps (~4.2 ms at 1 ns resolution, ~268 ms at
//!   64 ns). Far slots hold mixed timestamps; as the near horizon sweeps
//!   past a far slot the whole slot is *scattered* into exact near slots
//!   in one pass. At exact resolution the 5 µs telemetry tick, the
//!   ~9 µs ACK echo and the 10 µs memory tick take this route;
//! * events beyond both horizons go to a small overflow heap keyed by
//!   `(time, seq)` and migrate into the near ring as the window advances.
//!
//! Both rings' slot heads and bitmaps come to ~33 KiB per wheel, so a
//! fleet of thousands of hosts, each with its own wheel, stays small.
//!
//! Timestamps are quantised **up** to the resolution grid at push time
//! (`ceil(t / R) · R`); at the default exact resolution this is the
//! identity and behaviour is bit-for-bit what the flat 1 ns wheel
//! produced. At a coarse resolution nearby events genuinely share slots,
//! which is what makes slot-drain batching pay (see `DESIGN.md`).
//!
//! The cache layout is the point. Events live in one contiguous node
//! arena recycled through a LIFO free list, so the handful of in-flight
//! nodes stay hot; a slot is a single `u32` list head (4 bytes — a cache
//! line covers 16 adjacent slots, and near-future schedules cluster);
//! and slot lists are stored *reversed* (push-at-head) so pushes never
//! chase a tail pointer. A near list is reversed once, in place, when the
//! cursor reaches the slot — O(1) amortised per event — which restores
//! FIFO order exactly. Two-level occupancy bitmaps (one bit per slot,
//! one summary bit per bitmap word, the summary a single `u64`) find the
//! next non-empty slot in at most three word reads, however sparse the
//! schedule.
//!
//! # Ordering across tiers
//!
//! The wheel pops in exactly `(quantised time, insertion seq)` order —
//! bit-for-bit what a `(time, seq)` binary heap at equal resolution
//! returns (the differential tests in `queue.rs` check it against one):
//! FIFO order within a quantised timestamp is insertion order. The argument:
//! the tier an event lands in depends only on its (quantised) time and
//! the window position at push time, and the window only moves forward.
//! So for any fixed timestamp `T`, pushes routed to the heap happened
//! before pushes routed to the far ring, which happened before direct
//! near-ring pushes — heap seqs < far seqs < near seqs. `advance_to`
//! assembles the drain list in exactly that order: near content first
//! (which is empty whenever far/heap ties exist at the new base, because
//! direct near pushes at such times were impossible), then heap
//! migrations in heap order, then far-slot scatters in per-slot seq
//! order; scatters and migrations that land on *future* near slots
//! push-at-head, which the later lazy reversal restores to seq order
//! ahead of any subsequent direct push.

use crate::queue::Entry;
use crate::time::{Resolution, SimTime};
use std::collections::BinaryHeap;

/// log2 of the near-ring slot count: 2^12 slots × one resolution step.
/// At 1 ns resolution the near horizon is 3–4 µs: serialisation, PCIe,
/// memory and per-packet CPU delays stay on the fast path, while the
/// telemetry tick (5 µs), the ACK echo (~9 µs) and the memory tick
/// (10 µs) route through the far ring and are scattered back in bulk.
const NEAR_BITS: u32 = 12;
/// Number of near-ring slots.
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
/// Near slot index mask.
const NEAR_MASK: usize = NEAR_SLOTS - 1;
/// Near occupancy bitmap words.
const NEAR_WORDS: usize = NEAR_SLOTS / 64;

/// log2 of a far slot's width in near-slot (resolution) steps.
const FAR_SUB_BITS: u32 = 10;
/// log2 of the far-ring slot count.
const FAR_BITS: u32 = 12;
/// Number of far-ring slots.
const FAR_SLOTS: usize = 1 << FAR_BITS;
/// Far slot index mask.
const FAR_MASK: usize = FAR_SLOTS - 1;
/// Far occupancy bitmap words.
const FAR_WORDS: usize = FAR_SLOTS / 64;
/// Far horizon in resolution steps: 2^12 slots × 2^10 steps = 2^22
/// (~4.2 ms at 1 ns resolution, ~268 ms at 64 ns).
const FAR_SPAN: u64 = (FAR_SLOTS as u64) << FAR_SUB_BITS;

// Each ring's occupancy summary is a single `u64` (one bit per bitmap
// word), and a far slot is narrower than the near window, so a far slot
// swept by the near horizon always fits in it whole.
const _: () = assert!(NEAR_WORDS == 64 && FAR_WORDS == 64 && FAR_SUB_BITS < NEAR_BITS);

/// Null link in the node arena.
const NIL: u32 = u32::MAX;

/// One arena node: an event payload, its quantised timestamp (in
/// resolution steps — needed to scatter far slots, which hold mixed
/// times), and the intrusive list link.
#[derive(Clone)]
struct Node<E> {
    /// `None` only while the node sits on the free list.
    event: Option<E>,
    /// Quantised time in resolution steps.
    time: u64,
    next: u32,
}

/// A deterministic min-priority event queue backed by a hierarchical
/// timing wheel with an overflow heap (see the module docs for the
/// design).
///
/// This is the engine's only queue.
#[derive(Clone)]
pub struct TimingWheel<E> {
    /// log2 of the resolution grid step in ns; all internal times are in
    /// grid steps (`ns >> shift` after rounding up).
    shift: u32,
    /// Contiguous node storage; freed nodes are recycled LIFO via `free`.
    nodes: Vec<Node<E>>,
    /// Free-list head (`NIL` when the arena has no holes).
    free: u32,
    /// Near ring: per-slot list head, stored in *reverse* insertion order.
    heads: Vec<u32>,
    /// One bit per near slot: set iff the slot's list is non-empty.
    occupied: Vec<u64>,
    /// One bit per `occupied` word: set iff that word is non-zero.
    summary: u64,
    /// Time (in steps) of the slot at `cursor`. No pending event is
    /// earlier than `base`.
    base: u64,
    /// Near slot index corresponding to `base`.
    cursor: usize,
    /// Drain list of the cursor slot, already reversed into FIFO order.
    /// Pushes at exactly `base` append here (tail pointer kept only for
    /// this one active slot).
    cur_head: u32,
    cur_tail: u32,
    /// Events currently in near-ring slots (including the drain list).
    near_len: usize,
    /// Far ring: per-slot list head (reverse insertion order), absolutely
    /// indexed by `(time >> FAR_SUB_BITS) & FAR_MASK`.
    far_heads: Vec<u32>,
    far_occ: Vec<u64>,
    far_sum: u64,
    /// Events currently in far-ring slots.
    far_len: usize,
    /// Lower edge of the far window (in steps, a multiple of the far slot
    /// width): the near ring owns `[base, far_start)`, the far ring owns
    /// `[far_start, far_start + FAR_SPAN)` for *new* pushes, the heap
    /// everything beyond. `far_start = floor((base + NEAR_SLOTS) / W)·W`.
    far_start: u64,
    /// Cached minimum far-ring timestamp (`None` = unknown or empty).
    far_next: Option<u64>,
    /// Events pushed beyond the far horizon, ordered by `(time, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    /// Cached earliest pending timestamp in steps (`None` when empty).
    next_time: Option<u64>,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty queue at exact (1 ns) resolution with its window starting
    /// at t = 0.
    pub fn new() -> Self {
        Self::with_resolution(Resolution::EXACT)
    }

    /// An empty queue whose event timestamps are quantised up to the
    /// given resolution grid.
    pub fn with_resolution(res: Resolution) -> Self {
        TimingWheel {
            shift: res.shift(),
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; NEAR_SLOTS],
            occupied: vec![0u64; NEAR_WORDS],
            summary: 0,
            base: 0,
            cursor: 0,
            cur_head: NIL,
            cur_tail: NIL,
            near_len: 0,
            far_heads: vec![NIL; FAR_SLOTS],
            far_occ: vec![0u64; FAR_WORDS],
            far_sum: 0,
            far_len: 0,
            far_start: ((NEAR_SLOTS as u64) >> FAR_SUB_BITS) << FAR_SUB_BITS,
            far_next: None,
            overflow: BinaryHeap::new(),
            next_time: None,
            next_seq: 0,
            popped: 0,
        }
    }

    /// An empty queue with pre-allocated node and overflow capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.nodes.reserve(cap);
        q.overflow.reserve(cap);
        q
    }

    /// The queue's resolution grid.
    pub fn resolution(&self) -> Resolution {
        Resolution::from_nanos(1u64 << self.shift).expect("shift came from a Resolution")
    }

    #[inline]
    fn slot_of(&self, time: u64) -> usize {
        (self.cursor + (time - self.base) as usize) & NEAR_MASK
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] |= 1u64 << (slot & 63);
        self.summary |= 1u64 << w;
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        let m = self.occupied[w] & !(1u64 << (slot & 63));
        self.occupied[w] = m;
        if m == 0 {
            self.summary &= !(1u64 << w);
        }
    }

    #[inline]
    fn far_set_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.far_occ[w] |= 1u64 << (slot & 63);
        self.far_sum |= 1u64 << w;
    }

    #[inline]
    fn far_clear_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        let m = self.far_occ[w] & !(1u64 << (slot & 63));
        self.far_occ[w] = m;
        if m == 0 {
            self.far_sum &= !(1u64 << w);
        }
    }

    /// Take a node from the free list (or grow the arena).
    #[inline]
    fn alloc(&mut self, event: E, time: u64, next: u32) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.event = Some(event);
            node.time = time;
            node.next = next;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                event: Some(event),
                time,
                next,
            });
            idx
        }
    }

    /// Append a node (already holding its event) to the drain list.
    #[inline]
    fn cur_append(&mut self, idx: u32) {
        self.nodes[idx as usize].next = NIL;
        if self.cur_tail == NIL {
            self.cur_head = idx;
        } else {
            self.nodes[self.cur_tail as usize].next = idx;
        }
        self.cur_tail = idx;
    }

    /// Schedule `event` at `time` (rounded up to the resolution grid).
    /// Times earlier than the window base (already-dispatched territory)
    /// are clamped to the base, matching the scheduler's past-time
    /// clamping policy.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mask = (1u64 << self.shift) - 1;
        let t = (time.as_nanos().saturating_add(mask) >> self.shift).max(self.base);
        if t == self.base {
            // The active slot: append to the (FIFO-ordered) drain list.
            let idx = self.alloc(event, t, NIL);
            self.cur_append(idx);
            self.near_len += 1;
        } else if t < self.far_start {
            // Inside the near window: `far_start <= base + NEAR_SLOTS`.
            let slot = self.slot_of(t);
            let head = self.heads[slot];
            let idx = self.alloc(event, t, head);
            self.heads[slot] = idx;
            self.set_bit(slot);
            self.near_len += 1;
        } else if t - self.far_start < FAR_SPAN {
            let fslot = ((t >> FAR_SUB_BITS) as usize) & FAR_MASK;
            debug_assert!(
                self.far_heads[fslot] == NIL
                    || self.nodes[self.far_heads[fslot] as usize].time >> FAR_SUB_BITS
                        == t >> FAR_SUB_BITS,
                "far slot holds a single epoch"
            );
            let head = self.far_heads[fslot];
            let idx = self.alloc(event, t, head);
            self.far_heads[fslot] = idx;
            self.far_set_bit(fslot);
            if self.far_len == 0 {
                self.far_next = Some(t);
            } else if let Some(m) = self.far_next {
                if t < m {
                    self.far_next = Some(t);
                }
            }
            self.far_len += 1;
        } else {
            self.overflow.push(Entry {
                time: SimTime::from_nanos(t << self.shift),
                seq,
                event,
            });
        }
        if self.next_time.map(|n| t < n).unwrap_or(true) {
            self.next_time = Some(t);
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let t = self.next_time?;
        if t != self.base {
            self.advance_to(t);
        }
        debug_assert!(self.cur_head != NIL, "cached next time but empty slot");
        let idx = self.cur_head;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("live node");
        self.cur_head = node.next;
        node.next = self.free;
        self.free = idx;
        self.near_len -= 1;
        self.popped += 1;
        if self.cur_head == NIL {
            self.cur_tail = NIL;
            self.clear_bit(self.cursor);
            self.next_time = self.scan_next();
        }
        Some((SimTime::from_nanos(t << self.shift), event))
    }

    /// Drain the whole base slot into `buf` in one pass over the drain
    /// list, returning its timestamp. Equivalent to — but cheaper than —
    /// popping until the next timestamp changes: the per-pop bookkeeping
    /// (drain-head updates, emptiness checks, bitmap clear, next-time
    /// rescan) runs once per *slot* instead of once per *event*.
    ///
    /// Once `advance_to` has run, every pending event stamped `t` is on
    /// the drain list: the far ring and overflow heap cannot hold entries
    /// at the base time (scatter and migration pull them in), and pushes
    /// at `t` during the walk are impossible because the caller holds
    /// `&mut self`.
    pub fn pop_slot(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        let t = self.next_time?;
        if t != self.base {
            self.advance_to(t);
        }
        debug_assert!(self.cur_head != NIL, "cached next time but empty slot");
        let mut idx = self.cur_head;
        let mut drained = 0usize;
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            buf.push(node.event.take().expect("live node"));
            let next = node.next;
            node.next = self.free;
            self.free = idx;
            idx = next;
            drained += 1;
        }
        self.cur_head = NIL;
        self.cur_tail = NIL;
        self.near_len -= drained;
        self.popped += drained as u64;
        self.clear_bit(self.cursor);
        self.next_time = self.scan_next();
        Some(SimTime::from_nanos(t << self.shift))
    }

    /// Move the window so that `t` (the cached earliest pending time) is
    /// the base slot, reverse that slot's list into the drain list, then
    /// pull in everything the advance made visible: overflow events now
    /// inside the near window, and far-ring slots the near horizon has
    /// swept past.
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t > self.base);
        debug_assert!(self.cur_head == NIL, "drain list empties before base moves");
        if t - self.base < NEAR_SLOTS as u64 {
            self.cursor = self.slot_of(t);
        }
        // Else: the near ring is empty (its entries all precede
        // base+NEAR_SLOTS, and t is the minimum) — keep the cursor,
        // rebase the window.
        self.base = t;
        // Reverse the slot's push-at-head list into FIFO drain order.
        let mut h = std::mem::replace(&mut self.heads[self.cursor], NIL);
        let tail = h;
        let mut prev = NIL;
        while h != NIL {
            let next = self.nodes[h as usize].next;
            self.nodes[h as usize].next = prev;
            prev = h;
            h = next;
        }
        self.cur_head = prev;
        self.cur_tail = tail;
        let new_fs = ((t + NEAR_SLOTS as u64) >> FAR_SUB_BITS) << FAR_SUB_BITS;
        // Migrate newly-visible overflow events (bulk, in two passes over
        // the heap's pop order — which is exactly `(time, seq)` order).
        // Pass 1: the whole tie-run at the new base goes straight onto
        // the drain list, no slot-head or occupancy-bit work at all.
        while let Some(head) = self.overflow.peek() {
            if head.time.as_nanos() >> self.shift != self.base {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let idx = self.alloc(e.event, self.base, NIL);
            self.cur_append(idx);
            self.near_len += 1;
        }
        // Pass 2: future times inside the new near window push-at-head
        // like any other insertion (the lazy reversal restores heap order
        // ahead of later pushes).
        while let Some(head) = self.overflow.peek() {
            let at = head.time.as_nanos() >> self.shift;
            if at >= new_fs {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let slot = self.slot_of(at);
            let idx = self.alloc(e.event, at, self.heads[slot]);
            self.heads[slot] = idx;
            self.set_bit(slot);
            self.near_len += 1;
        }
        // Scatter far slots the near window now covers. Only *fully*
        // covered slots (slot base below `new_fs`) move, and a slot moves
        // wholesale: reverse its push-at-head list to seq order, then
        // route each node — ties at the new base append to the drain list
        // (after heap migrants, which carry smaller seqs), future times
        // push-at-head into their exact near slot.
        if self.far_len > 0 {
            // All far content lies within one `FAR_SPAN` window from
            // `far_start`, so a circular scan from its slot is time order.
            let start_idx = ((self.far_start >> FAR_SUB_BITS) as usize) & FAR_MASK;
            let mut scattered = false;
            while self.far_len > 0 {
                let Some(fslot) = first_set_from(&self.far_occ, self.far_sum, start_idx) else {
                    break;
                };
                let offset = (fslot.wrapping_sub(start_idx) & FAR_MASK) as u64;
                let slot_base = self.far_start + (offset << FAR_SUB_BITS);
                if slot_base >= new_fs {
                    break;
                }
                let mut h = std::mem::replace(&mut self.far_heads[fslot], NIL);
                self.far_clear_bit(fslot);
                // Reverse in place: the list was pushed in seq order, so
                // the reversal yields ascending seq.
                let mut prev = NIL;
                while h != NIL {
                    let next = self.nodes[h as usize].next;
                    self.nodes[h as usize].next = prev;
                    prev = h;
                    h = next;
                }
                let mut n = prev;
                while n != NIL {
                    let next = self.nodes[n as usize].next;
                    let at = self.nodes[n as usize].time;
                    debug_assert!(at >= self.base && at < new_fs);
                    if at == self.base {
                        self.cur_append(n);
                    } else {
                        let slot = self.slot_of(at);
                        self.nodes[n as usize].next = self.heads[slot];
                        self.heads[slot] = n;
                        self.set_bit(slot);
                    }
                    self.far_len -= 1;
                    self.near_len += 1;
                    n = next;
                }
                scattered = true;
            }
            if scattered {
                self.far_next = None;
            }
        }
        self.far_start = new_fs;
    }

    /// Minimum timestamp in the far ring (walks the frontier slot's list
    /// once and caches the result; pushes keep the cache fresh).
    fn far_min(&mut self) -> Option<u64> {
        if self.far_len == 0 {
            return None;
        }
        if let Some(m) = self.far_next {
            return Some(m);
        }
        let start_idx = ((self.far_start >> FAR_SUB_BITS) as usize) & FAR_MASK;
        let fslot = first_set_from(&self.far_occ, self.far_sum, start_idx)
            .expect("far_len > 0 but no occupied far slot");
        let mut min = u64::MAX;
        let mut n = self.far_heads[fslot];
        while n != NIL {
            let node = &self.nodes[n as usize];
            min = min.min(node.time);
            n = node.next;
        }
        self.far_next = Some(min);
        Some(min)
    }

    /// Earliest pending timestamp after the base slot emptied: the next
    /// occupied near slot (circular two-level bitmap scan from the
    /// cursor), else the minimum of the far ring and the overflow heap.
    /// Near content always precedes far content precedes heap *pushes*,
    /// but old heap entries can sit inside today's far window, so the
    /// far/heap minimum is a genuine min, not a cascade.
    fn scan_next(&mut self) -> Option<u64> {
        if self.near_len > 0 {
            return Some(self.scan_near());
        }
        let far = self.far_min();
        let heap = self
            .overflow
            .peek()
            .map(|e| e.time.as_nanos() >> self.shift);
        match (far, heap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Next occupied near slot; the caller guarantees `near_len > 0`.
    /// (The cursor's own bit was cleared before this scan.)
    fn scan_near(&self) -> u64 {
        let slot = first_set_from(&self.occupied, self.summary, self.cursor);
        self.time_of(slot.expect("near_len > 0 but no occupied slot"))
    }

    /// Time (in steps) of near `slot` under the current window.
    #[inline]
    fn time_of(&self, slot: usize) -> u64 {
        self.base + (slot.wrapping_sub(self.cursor) & NEAR_MASK) as u64
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_time.map(|t| SimTime::from_nanos(t << self.shift))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.near_len + self.far_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events dispatched over the queue's lifetime.
    pub fn dispatched_total(&self) -> u64 {
        self.popped
    }
}

/// First set bit of a 64-word two-level bitmap (`summary` holds one bit
/// per non-zero `occ` word), scanning circularly from bit `start`.
#[inline]
fn first_set_from(occ: &[u64], summary: u64, start: usize) -> Option<usize> {
    let (sw, sb) = (start >> 6, start & 63);
    let w = occ[sw] & (!0u64 << sb);
    if w != 0 {
        return Some((sw << 6) + w.trailing_zeros() as usize);
    }
    // The following words, wrapping once around. The start word comes
    // last, and by now only its bits before `start` can be set: the far
    // end of the circular window.
    let s = summary.rotate_right(sw as u32 + 1);
    if s == 0 {
        return None;
    }
    let word = (sw + 1 + s.trailing_zeros() as usize) & 63;
    Some((word << 6) + occ[word].trailing_zeros() as usize)
}

impl<E: Clone> TimingWheel<E> {
    /// Serialize the lifetime counters plus every pending `(time, event)`
    /// in exactly the order repeated [`pop`](Self::pop) calls would return
    /// them, by draining a clone. The restored wheel re-pushes the events
    /// into a fresh window (base 0), which may place them in different
    /// tiers than the original — that only shifts *where* bookkeeping
    /// work happens, never the pop order: pushes in ascending dispatch
    /// order get ascending seqs, and the wheel's cross-tier ordering
    /// guarantee makes the pop sequence a pure function of `(time, seq)`.
    pub fn save_state<F: FnMut(&E, &mut crate::snap::SnapWriter)>(
        &self,
        w: &mut crate::snap::SnapWriter,
        mut enc: F,
    ) {
        w.u32(self.shift);
        w.u64(self.next_seq);
        w.u64(self.popped);
        w.usize(self.len());
        let mut drain = self.clone();
        while let Some((t, ev)) = drain.pop() {
            w.time(t);
            enc(&ev, w);
        }
    }

    /// Rebuild a wheel from [`save_state`](Self::save_state) output. The
    /// restored wheel is observationally identical: same pop sequence,
    /// same FIFO tie-breaks against future pushes, same lifetime counters.
    pub fn load_state<
        'a,
        F: FnMut(&mut crate::snap::SnapReader<'a>) -> Result<E, crate::snap::SnapError>,
    >(
        r: &mut crate::snap::SnapReader<'a>,
        mut dec: F,
    ) -> Result<Self, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let shift = r.u32()?;
        let res = u64::checked_shl(1, shift)
            .and_then(Resolution::from_nanos)
            .ok_or(SnapError::Corrupt("bad wheel resolution"))?;
        let next_seq = r.u64()?;
        let popped = r.u64()?;
        let n = r.len(9)?; // 8 B timestamp + >=1 B event each
        if (n as u64) > next_seq {
            return Err(SnapError::Corrupt("more pending events than scheduled"));
        }
        let mut q = TimingWheel::with_resolution(res);
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let t = r.time()?;
            if t < last {
                return Err(SnapError::Corrupt("wheel events out of order"));
            }
            last = t;
            q.push(t, dec(r)?);
        }
        // Lifetime counters continue from the checkpoint, and future
        // pushes' seqs sort after every restored entry.
        q.next_seq = next_seq;
        q.popped = popped;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Beyond the far horizon from t = 0: lands in the overflow heap.
    const HEAP_NS: u64 = FAR_SPAN + (NEAR_SLOTS as u64) + 1_000_000;

    #[test]
    fn far_future_events_round_trip_through_far_ring_and_overflow() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let ns = SimTime::from_nanos;
        // Three far-ring times (inside `FAR_SPAN` from t = 0) and two
        // overflow-heap times (beyond it).
        q.push(ns(FAR_SPAN / 4), 1);
        q.push(ns(FAR_SPAN / 8), 0);
        q.push(ns(HEAP_NS), 3);
        q.push(ns(FAR_SPAN / 2), 2);
        q.push(ns(HEAP_NS + 7), 4);
        assert_eq!((q.near_len, q.far_len, q.overflow.len()), (0, 3, 2));
        // (far_len, overflow.len()) after each pop: the far ring drains
        // first, then both heap entries migrate in one advance.
        let after = [(2, 2), (1, 2), (0, 2), (0, 0), (0, 0)];
        for (want, tiers) in after.into_iter().enumerate() {
            let (_, got) = q.pop().unwrap();
            assert_eq!(got, want as u32);
            assert_eq!((q.far_len, q.overflow.len()), tiers, "after pop {want}");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_ties_stay_fifo_across_migration() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let t = SimTime::from_nanos(HEAP_NS);
        for i in 0..50 {
            q.push(t, i);
        }
        // Force a window advance through an intermediate event.
        q.push(SimTime::from_micros(10), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        for i in 0..50 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
    }

    /// Regression for the bulk overflow migration: a tie-run at the new
    /// base interleaved (by push order) with later-time heap entries must
    /// still emerge in seq order, and the later entries must re-emerge in
    /// their own seq order afterwards.
    #[test]
    fn overflow_bulk_migration_keeps_interleaved_ties_in_seq_order() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let t0 = SimTime::from_nanos(HEAP_NS);
        let t1 = SimTime::from_nanos(HEAP_NS + 64);
        // Interleave pushes across the two heap timestamps.
        for i in 0..40 {
            if i % 2 == 0 {
                q.push(t0, i);
            } else {
                q.push(t1, i);
            }
        }
        // Both migrate in the same advance (they are 64 ns apart, well
        // inside one near window).
        for i in (0..40).step_by(2) {
            assert_eq!(q.pop().unwrap(), (t0, i));
        }
        for i in (1..40).step_by(2) {
            assert_eq!(q.pop().unwrap(), (t1, i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slot_lists_drain_in_insertion_order() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        // Many entries in one future slot: the reversed list must come
        // back out FIFO after the lazy reversal at the cursor.
        let t = SimTime::from_nanos(500);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
        // And pushes at the (new) base append after drained entries.
        q.push(t, 200);
        q.push(t, 201);
        assert_eq!(q.pop().unwrap(), (t, 200));
        q.push(t, 202);
        assert_eq!(q.pop().unwrap(), (t, 201));
        assert_eq!(q.pop().unwrap(), (t, 202));
    }

    #[test]
    fn tier_boundaries_are_exact() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        // From base 0: near ring owns [0, NEAR_SLOTS), far ring
        // [NEAR_SLOTS, NEAR_SLOTS + FAR_SPAN), heap beyond.
        let near_edge = NEAR_SLOTS as u64;
        let heap_edge = near_edge + FAR_SPAN;
        q.push(SimTime::from_nanos(near_edge - 1), 0); // last near slot
        q.push(SimTime::from_nanos(near_edge), 1); // first far time
        q.push(SimTime::from_nanos(heap_edge - 1), 2); // last far time
        q.push(SimTime::from_nanos(heap_edge), 3); // first heap time
        assert_eq!(q.overflow.len(), 1);
        assert_eq!(q.far_len, 2);
        assert_eq!(q.near_len, 1);
        for want in 0..4 {
            let (_, got) = q.pop().unwrap();
            assert_eq!(got, want);
        }
    }

    /// The cross-tier seq-order guarantee: pushes at one timestamp that
    /// land in different tiers (because the window advanced between them)
    /// must still pop in push order.
    #[test]
    fn same_timestamp_pushes_across_tiers_pop_in_seq_order() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let ns = SimTime::from_nanos;
        let x = ns(HEAP_NS); // beyond the heap edge from base 0
        q.push(x, 0); // → overflow heap
        assert_eq!((q.far_len, q.overflow.len()), (0, 1));
        q.push(ns(HEAP_NS - FAR_SPAN / 2), 100); // far ring marker
        assert_eq!(q.pop().unwrap().1, 100); // x is now inside the far window
        q.push(x, 1); // → far ring (later seq than the heap entry)
        assert_eq!((q.far_len, q.overflow.len()), (1, 1));
        q.push(ns(HEAP_NS - FAR_SPAN / 4), 101);
        assert_eq!(q.pop().unwrap().1, 101); // x still beyond the near window
        q.push(x, 2); // → far ring again
        assert_eq!((q.far_len, q.overflow.len()), (2, 1));
        q.push(ns(HEAP_NS - 100), 102); // shares x's far slot
        assert_eq!(q.pop().unwrap().1, 102); // migrates x's heap entry, scatters x's slot
        assert_eq!((q.far_len, q.overflow.len()), (0, 0));
        q.push(x, 3); // → near ring directly
        assert_eq!(q.near_len, 4);
        // Heap entry (0) first, then far entries (1, 2), then the direct
        // near push (3): exactly push order.
        for want in 0..4 {
            assert_eq!(q.pop().unwrap(), (x, want));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn past_time_pushes_clamp_to_window_base() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        q.push(SimTime::from_nanos(100), 0);
        assert_eq!(q.pop().unwrap().0.as_nanos(), 100);
        // The window base is now 100; a push at 40 clamps to 100.
        q.push(SimTime::from_nanos(40), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 1)));
    }

    #[test]
    fn coarse_resolution_quantises_up_and_keeps_fifo() {
        let res = Resolution::from_nanos(64).unwrap();
        let mut q: TimingWheel<u32> = TimingWheel::with_resolution(res);
        assert_eq!(q.resolution(), res);
        // 1..64 all round up to the same 64 ns slot; 0 stays at 0.
        q.push(SimTime::from_nanos(70), 2);
        q.push(SimTime::from_nanos(1), 0);
        q.push(SimTime::from_nanos(64), 1);
        q.push(SimTime::from_nanos(128), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(64), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(64), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(128), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(128), 3)));
        // A whole batch shares the slot under pop_slot.
        let mut buf = Vec::new();
        for i in 10..20 {
            q.push(SimTime::from_nanos(1000 + (i as u64 - 10)), i);
        }
        assert_eq!(q.pop_slot(&mut buf), Some(SimTime::from_nanos(1024)));
        assert_eq!(buf, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn pop_slot_matches_repeated_pops() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(0x51075);
        let mut a: TimingWheel<u32> = TimingWheel::new();
        let mut b: TimingWheel<u32> = TimingWheel::new();
        let mut now = 0u64;
        let mut id = 0u32;
        let mut buf: Vec<u32> = Vec::new();
        for _ in 0..50_000 {
            if rng.chance(0.6) || a.is_empty() {
                // Heavy same-time clustering so slots hold real batches,
                // with delays spanning all three tiers.
                let delay = match rng.next_below(5) {
                    0 => 0,
                    1 => rng.next_below(3),
                    2 => rng.next_below(2_000),
                    3 => rng.next_below(500_000),
                    _ => rng.next_below(100_000_000),
                };
                let t = SimTime::from_nanos(now + delay);
                a.push(t, id);
                b.push(t, id);
                id += 1;
            } else {
                buf.clear();
                let t = a.pop_slot(&mut buf).expect("non-empty");
                for &ev in &buf {
                    assert_eq!(b.pop(), Some((t, ev)), "slot drain diverged");
                }
                assert_ne!(b.peek_time(), Some(t), "pop_slot left same-time events");
                now = t.as_nanos();
            }
            assert_eq!(a.len(), b.len());
            assert_eq!(a.peek_time(), b.peek_time());
        }
        assert_eq!(a.dispatched_total(), b.dispatched_total());
    }

    #[test]
    fn pop_slot_recycles_nodes_and_drains_overflow_ties() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let mut buf = Vec::new();
        // Overflow ties migrate into the drain list and come out in one slot.
        let far = SimTime::from_nanos(HEAP_NS);
        for i in 0..20 {
            q.push(far, i);
        }
        q.push(SimTime::from_nanos(7), 99);
        assert_eq!(q.pop_slot(&mut buf), Some(SimTime::from_nanos(7)));
        assert_eq!(buf, [99]);
        buf.clear();
        assert_eq!(q.pop_slot(&mut buf), Some(far));
        assert_eq!(buf, (0..20).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.pop_slot(&mut buf), None);
        // Freed nodes are recycled: a fresh burst must not grow the arena.
        let grown = q.nodes.len();
        for i in 0..20 {
            q.push(SimTime::from_nanos(HEAP_NS + 1_000_000), i);
        }
        let _ = q.pop();
        assert_eq!(
            q.nodes.len(),
            grown,
            "pop_slot must return nodes to the free list"
        );
    }

    #[test]
    fn wrapping_window_reuses_slots() {
        let mut q: TimingWheel<u32> = TimingWheel::new();
        let mut now = 0u64;
        // March far enough that the near cursor wraps several times.
        for i in 0..10 * NEAR_SLOTS as u32 {
            q.push(SimTime::from_nanos(now + 17), i);
            let (t, got) = q.pop().unwrap();
            assert_eq!(got, i);
            now = t.as_nanos();
        }
        assert_eq!(now, 17 * 10 * NEAR_SLOTS as u64);
        assert!(q.is_empty());
        assert_eq!(q.dispatched_total(), 10 * NEAR_SLOTS as u64);
        // The node arena stayed tiny: one in-flight event at a time.
        assert!(q.nodes.len() <= 2, "free list should recycle nodes");
    }

    /// March a long-lived schedule through several far-window rotations:
    /// periodic timers at many phases continuously cross the near/far
    /// boundary and must keep exact order.
    #[test]
    fn far_ring_scatter_preserves_order_across_rotations() {
        let mut q: TimingWheel<u64> = TimingWheel::new();
        let mut expected = std::collections::VecDeque::new();
        // Periodic timers: 250 µs cadence at 8 phases, far enough ahead
        // to live in the far ring, re-armed on every fire.
        let mut next_fire: Vec<u64> = (0..8).map(|p| 250_000 + p * 31_013).collect();
        for id in 0..2_000u64 {
            let (phase, &t) = next_fire
                .iter()
                .enumerate()
                .min_by_key(|&(i, &t)| (t, i))
                .unwrap();
            q.push(SimTime::from_nanos(t), id);
            expected.push_back((t, id));
            next_fire[phase] = t + 250_000;
        }
        // Sort expected by (time, push order) — push order here is also
        // min-time order, so expected is already sorted; drain and check.
        let mut sorted: Vec<(u64, u64)> = expected.iter().copied().collect();
        sorted.sort();
        while let Some((t, v)) = q.pop() {
            let (et, ev) = sorted.remove(0);
            assert_eq!((t.as_nanos(), v), (et, ev));
        }
        assert!(sorted.is_empty());
    }

    #[test]
    fn slot_arrays_and_bitmaps_fit_in_40_kib() {
        let q: TimingWheel<u32> = TimingWheel::new();
        let bytes = (q.heads.capacity() + q.far_heads.capacity()) * size_of::<u32>()
            + (q.occupied.capacity() + q.far_occ.capacity()) * size_of::<u64>()
            + size_of_val(&q.summary)
            + size_of_val(&q.far_sum);
        assert!(bytes <= 40 * 1024, "wheel slot state is {bytes} B");
    }

    /// At a 64 ns grid the far horizon is `FAR_SPAN` × 64 ns (~268 ms).
    /// A random schedule reaching two horizons ahead, run across several
    /// of them, must pop in `(quantised time, seq)` order from all three
    /// tiers.
    #[test]
    fn coarse_wheel_keeps_time_seq_order_across_far_horizons() {
        use crate::rng::SimRng;
        use std::cmp::Reverse;
        const STEP: u64 = 64;
        let horizon = FAR_SPAN * STEP;
        let mut q: TimingWheel<u64> =
            TimingWheel::with_resolution(Resolution::from_nanos(STEP).unwrap());
        let mut model = BinaryHeap::new();
        let mut rng = SimRng::new(0xC0A25E);
        let (mut now, mut seq) = (0u64, 0u64);
        // Pushes that landed in the near ring, the far ring, the heap.
        let mut landed = [0u32; 3];
        let check_pop = |q: &mut TimingWheel<u64>, model: &mut BinaryHeap<_>| {
            let Reverse((t, s)) = model.pop().expect("model non-empty");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t * STEP), s)));
            t * STEP
        };
        for _ in 0..20_000 {
            if q.is_empty() || rng.chance(0.4) {
                let delay = match rng.next_below(3) {
                    0 => rng.next_below(NEAR_SLOTS as u64 * STEP),
                    1 => rng.next_below(horizon),
                    _ => horizon + rng.next_below(horizon),
                };
                let (near, far) = (q.near_len, q.far_len);
                q.push(SimTime::from_nanos(now + delay), seq);
                let tier = [q.near_len > near, q.far_len > far, true]
                    .iter()
                    .position(|&grew| grew)
                    .unwrap();
                landed[tier] += 1;
                model.push(Reverse(((now + delay).div_ceil(STEP), seq)));
                seq += 1;
            } else {
                now = check_pop(&mut q, &mut model);
            }
        }
        assert!(now > 3 * horizon, "schedule spanned only {now} ns");
        assert!(landed.iter().all(|&n| n > 1_000), "tier mix {landed:?}");
        while !model.is_empty() {
            check_pop(&mut q, &mut model);
        }
        assert!(q.is_empty());
    }
}
