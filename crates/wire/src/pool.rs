//! A reusable datagram buffer pool.
//!
//! The receive hot path used to allocate a fresh `Vec<u8>` per datagram
//! (`buf[..len].to_vec()`) just to move bytes across the drain-thread
//! channel. [`BufferPool`] replaces that with a free list of fixed-size
//! buffers: `take()` pops one (or allocates on a miss), [`PoolBuf`]'s
//! `Drop` pushes it back. Buffers are pre-zeroed to their full capacity so
//! the kernel can scatter into fully initialised storage — no `unsafe`,
//! no uninitialised reads.
//!
//! The pool is `Clone` (an `Arc` handle) and thread-safe: the drain thread
//! takes buffers, the decode thread drops them, and both touch one mutex
//! for a push/pop of a pointer-sized element. The hit/miss counters are
//! registered on `Registry::disabled()` when the pool is built;
//! [`BufferPool::attach_telemetry`] moves them to a live registry.

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
    /// Max buffers retained on the free list; excess returns are freed.
    retain: usize,
    /// Capacity (and initialised length) of every pooled buffer.
    buf_capacity: usize,
}

/// A thread-safe free list of fixed-size, fully-initialised byte buffers.
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

    /// Pops a buffer from the free list (or allocates on a miss). The
    /// buffer is zero-length as seen through [`PoolBuf`] but its full
    /// capacity is initialised and reachable via `spare_mut`.
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
        PoolBuf {
            buf,
            len: 0,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pops `n` buffers under a single lock, allocating any shortfall
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
            .map(|buf| PoolBuf {
                buf,
                len: 0,
                shared: Arc::clone(&self.shared),
            })
            .collect();
        while out.len() < n {
            out.push(PoolBuf {
                buf: vec![0u8; self.shared.buf_capacity],
                len: 0,
                shared: Arc::clone(&self.shared),
            });
        }
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

    /// Buffers currently idle on the free list.
    pub fn idle(&self) -> usize {
        lock(&self.shared).free.len()
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

/// A buffer checked out of a [`BufferPool`]; returns itself on drop.
///
/// Dereferences to the *valid prefix* (`..len`) — the portion a receive
/// actually filled — while `spare_mut` exposes the full initialised
/// capacity for the kernel to scatter into.
pub struct PoolBuf {
    buf: Vec<u8>,
    len: usize,
    shared: Arc<Shared>,
}

impl PoolBuf {
    /// The whole initialised capacity, for filling.
    pub fn spare_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Marks the first `len` bytes as valid (clamped to capacity).
    pub fn set_len(&mut self, len: usize) {
        self.len = len.min(self.buf.len());
    }

    /// Replaces the contents with `bytes` (clamped to capacity).
    pub fn copy_from(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(self.buf.len());
        if let (Some(dst), Some(src)) = (self.buf.get_mut(..n), bytes.get(..n)) {
            dst.copy_from_slice(src);
        }
        self.len = n;
    }

    /// The valid prefix length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are valid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolBuf({} bytes)", self.len)
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let mut state = lock(&self.shared);
        if state.free.len() < self.shared.retain {
            state.free.push(buf);
        }
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
