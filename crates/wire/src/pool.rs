//! fec-audit: deny(panic)
//!
//! A reusable datagram buffer pool.
//!
//! The receive hot path used to allocate a fresh `Vec<u8>` per datagram
//! (`buf[..len].to_vec()`) just to move bytes across the drain-thread
//! channel. [`BufferPool`] replaces that with a free list of fixed-size
//! slabs: `take()` pops one (or allocates on a miss) and hands it out as
//! a [`PoolBuf`]. Slabs are pre-zeroed to their full capacity so the
//! kernel can scatter into fully initialised storage — no `unsafe`, no
//! uninitialised reads.
//!
//! A [`PoolBuf`] is a *view*: a reference-counted slab plus a byte range.
//! A plain receive fills one slab per datagram and hands out its only
//! view. A GRO receive leaves a coalesced super-datagram in the one slab
//! the kernel scattered into and hands out one view per logical datagram
//! — no copy, no further take. The slab goes back on the free list when
//! its last view drops.
//!
//! Memory rule: a retained view pins its whole slab (`buf_capacity`
//! bytes, 64 KiB by default), however short the view. A queued GRO burst
//! of 64 datagrams pins one slab, not 64; a consumer that keeps a few
//! datagrams of many bursts alive keeps every one of those slabs.
//!
//! The pool is `Clone` (an `Arc` handle) and thread-safe: the drain thread
//! takes slabs, the decode thread drops the views, and the last drop of a
//! slab touches one mutex for a push of a pointer-sized element. The
//! hit/miss counters are registered on `Registry::disabled()` when the
//! pool is built; [`BufferPool::attach_telemetry`] moves them to a live
//! registry.

use std::sync::{Arc, Mutex, MutexGuard};

use fec_telemetry::{Counter, Registry};

/// Default datagram capacity: comfortably above any UDP payload this
/// workspace emits (symbols are ≤ 64 KiB in theory, ≤ ~1500 B in practice,
/// but the CLI historically drained into a 65536-byte scratch buffer).
pub const DEFAULT_BUF_CAPACITY: usize = 65536;

/// Default number of buffers retained on the free list.
pub const DEFAULT_POOL_CAPACITY: usize = 256;

struct State {
    free: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    metrics: PoolMetrics,
}

struct PoolMetrics {
    hits: Counter,
    misses: Counter,
}

impl PoolMetrics {
    fn register(registry: &Registry) -> PoolMetrics {
        let name = "fec_wire_pool_total";
        let help = "Buffer pool requests by outcome";
        PoolMetrics {
            hits: registry.counter_with(name, help, &[("outcome", "hit")]),
            misses: registry.counter_with(name, help, &[("outcome", "miss")]),
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Max slabs retained on the free list; excess returns are freed.
    retain: usize,
    /// Capacity (and initialised length) of every pooled slab.
    buf_capacity: usize,
}

/// A thread-safe free list of fixed-size, fully-initialised byte slabs.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // A poisoned pool mutex only means another thread panicked mid-push;
    // the free list is a Vec of Vecs and is valid in every intermediate
    // state, so recover the guard instead of propagating the panic.
    match shared.state.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl BufferPool {
    /// A pool with the default buffer size and retention.
    pub fn new() -> BufferPool {
        BufferPool::with_config(DEFAULT_BUF_CAPACITY, DEFAULT_POOL_CAPACITY)
    }

    /// A pool of `retain` buffers of `buf_capacity` bytes each.
    pub fn with_config(buf_capacity: usize, retain: usize) -> BufferPool {
        BufferPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    free: Vec::new(),
                    hits: 0,
                    misses: 0,
                    metrics: PoolMetrics::register(&Registry::disabled()),
                }),
                retain,
                buf_capacity: buf_capacity.max(1),
            }),
        }
    }

    /// Registers hit/miss counters and back-fills counts accrued so far.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let metrics = PoolMetrics::register(registry);
        let mut state = lock(&self.shared);
        metrics.hits.add(state.hits);
        metrics.misses.add(state.misses);
        state.metrics = metrics;
    }

    /// Pops a slab from the free list (or allocates on a miss) as the
    /// only view of it: zero-length as seen through [`PoolBuf`], but its
    /// full capacity is initialised and reachable for filling.
    pub fn take(&self) -> PoolBuf {
        let buf = {
            let mut state = lock(&self.shared);
            match state.free.pop() {
                Some(buf) => {
                    state.hits += 1;
                    state.metrics.hits.inc();
                    Some(buf)
                }
                None => {
                    state.misses += 1;
                    state.metrics.misses.inc();
                    None
                }
            }
        };
        let buf = buf.unwrap_or_else(|| vec![0u8; self.shared.buf_capacity]);
        PoolBuf::new(buf, &self.shared)
    }

    /// Pops `n` slabs under a single lock, allocating any shortfall
    /// outside it. The engine refills its receive ring through this.
    pub fn take_many(&self, n: usize) -> Vec<PoolBuf> {
        let mut popped: Vec<Vec<u8>> = Vec::with_capacity(n);
        {
            let mut state = lock(&self.shared);
            while popped.len() < n {
                match state.free.pop() {
                    Some(buf) => popped.push(buf),
                    None => break,
                }
            }
            let hits = popped.len() as u64;
            let misses = (n - popped.len()) as u64;
            state.hits += hits;
            state.misses += misses;
            state.metrics.hits.add(hits);
            state.metrics.misses.add(misses);
        }
        let mut out: Vec<PoolBuf> = popped
            .into_iter()
            .map(|buf| PoolBuf::new(buf, &self.shared))
            .collect();
        let capacity = self.shared.buf_capacity;
        out.resize_with(n, || PoolBuf::new(vec![0u8; capacity], &self.shared));
        out
    }

    /// A pooled buffer pre-filled with `bytes` (convenience for tests and
    /// scripted burst sources).
    pub fn buf_from(&self, bytes: &[u8]) -> PoolBuf {
        let mut buf = self.take();
        buf.copy_from(bytes);
        buf
    }

    /// The capacity every pooled buffer is initialised to.
    pub fn buf_capacity(&self) -> usize {
        self.shared.buf_capacity
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let state = lock(&self.shared);
        (state.hits, state.misses)
    }

    /// Slabs currently idle on the free list.
    pub fn idle(&self) -> usize {
        lock(&self.shared).free.len()
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

/// One pooled buffer, shared by every [`PoolBuf`] view of it; the last
/// view to drop runs this `Drop` and the bytes go back on the free list.
struct Slab {
    bytes: Vec<u8>,
    shared: Arc<Shared>,
}

impl Drop for Slab {
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        let mut state = lock(&self.shared);
        if state.free.len() < self.shared.retain {
            state.free.push(bytes);
        }
    }
}

/// A view of bytes in a pooled slab: a reference-counted slab plus a byte
/// range. A buffer fresh from [`BufferPool::take`] is the only view of its
/// slab; a GRO receive splits one slab into a view per logical datagram.
/// The slab returns to the free list when its last view drops, on
/// whichever thread that happens.
///
/// Dereferences to the view's valid bytes — for a filled buffer, the
/// prefix a receive actually wrote.
pub struct PoolBuf {
    slab: Arc<Slab>,
    start: usize,
    end: usize,
}

impl PoolBuf {
    fn new(bytes: Vec<u8>, shared: &Arc<Shared>) -> PoolBuf {
        PoolBuf {
            slab: Arc::new(Slab {
                bytes,
                shared: Arc::clone(shared),
            }),
            start: 0,
            end: 0,
        }
    }

    /// The slab's whole initialised capacity, for filling; empty once
    /// the slab is shared (a view never writes under another view).
    pub(crate) fn spare_mut(&mut self) -> &mut [u8] {
        match Arc::get_mut(&mut self.slab) {
            Some(slab) => &mut slab.bytes,
            None => &mut [],
        }
    }

    /// Marks the first `len` bytes of the slab as valid (clamped to
    /// capacity).
    pub(crate) fn set_len(&mut self, len: usize) {
        self.start = 0;
        self.end = len.min(self.slab.bytes.len());
    }

    /// Splits the valid bytes, in order, into views of `seg` bytes each
    /// (the last may be shorter) that share this buffer's slab.
    pub(crate) fn split_into(self, seg: usize, out: &mut Vec<PoolBuf>) {
        let seg = seg.max(1);
        let mut start = self.start;
        while self.end.saturating_sub(start) > seg {
            out.push(PoolBuf {
                slab: Arc::clone(&self.slab),
                start,
                end: start + seg,
            });
            start += seg;
        }
        out.push(PoolBuf { start, ..self });
    }

    /// Replaces the contents with `bytes` (clamped to capacity).
    fn copy_from(&mut self, bytes: &[u8]) {
        let spare = self.spare_mut();
        let n = bytes.len().min(spare.len());
        if let (Some(dst), Some(src)) = (spare.get_mut(..n), bytes.get(..n)) {
            dst.copy_from_slice(src);
        }
        self.set_len(n);
    }

    /// The valid length.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when no bytes are valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.slab
            .bytes
            .get(self.start..self.end)
            .unwrap_or_default()
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_buffers() {
        let pool = BufferPool::with_config(1500, 4);
        {
            let mut b = pool.take();
            b.copy_from(b"hello");
            assert_eq!(&*b, b"hello");
        }
        assert_eq!(pool.idle(), 1);
        let _b = pool.take();
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::with_config(64, 2);
        let bufs: Vec<PoolBuf> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn set_len_clamps_and_deref_tracks() {
        let pool = BufferPool::with_config(8, 1);
        let mut b = pool.take();
        assert!(b.is_empty());
        b.spare_mut().fill(7);
        b.set_len(100);
        assert_eq!(b.len(), 8);
        assert_eq!(&*b, &[7u8; 8]);
    }

    #[test]
    fn split_views_share_one_slab_until_the_last_drops() {
        let pool = BufferPool::with_config(16, 4);
        let mut b = pool.take();
        b.copy_from(b"abcdefghij");
        let mut views = Vec::new();
        b.split_into(4, &mut views);
        let bytes: Vec<&[u8]> = views.iter().map(|v| &**v).collect();
        assert_eq!(bytes, [&b"abcd"[..], b"efgh", b"ij"]);
        let last = views.pop();
        drop(views);
        assert_eq!(pool.idle(), 0, "a live view pins its slab");
        drop(last);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats(), (0, 1), "splitting takes nothing");
    }

    #[test]
    fn telemetry_backfills() {
        let pool = BufferPool::with_config(64, 4);
        drop(pool.take()); // miss
        drop(pool.take()); // hit
        let registry = Registry::new();
        pool.attach_telemetry(&registry);
        drop(pool.take()); // hit, counted live
        let text = registry.render_prometheus();
        assert!(
            text.contains("fec_wire_pool_total{outcome=\"hit\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fec_wire_pool_total{outcome=\"miss\"} 1"),
            "{text}"
        );
    }
}
