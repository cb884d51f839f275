//! [`PolyScratch`]: a per-thread arena of reusable polynomial buffers.
//!
//! The scheme's hot paths (encrypt: three error polynomials plus the
//! encoded message; decrypt: one working polynomial) need short-lived
//! n-coefficient buffers. Allocating them per call is what made every
//! `encrypt` cost six heap allocations; a `PolyScratch` owned by the
//! caller (one per worker thread in `rlwe-engine`'s batch fan-out) pays
//! those allocations once and then serves every subsequent operation
//! allocation-free.
//!
//! Discipline: `PolyScratch` is deliberately **not** `Sync` — each worker
//! thread owns its own arena. Buffers are checked out with
//! [`PolyScratch::take`] and must be returned with [`PolyScratch::put`];
//! a buffer that is dropped instead of returned is simply re-allocated on
//! the next `take` (correct, just slower), so the arena can never dangle
//! or double-lend.

/// A reusable arena of `n`-coefficient `u32` buffers.
///
/// # Example
///
/// ```
/// use rlwe_ntt::PolyScratch;
///
/// let mut scratch = PolyScratch::new(256);
/// let mut buf = scratch.take();          // first take allocates
/// assert_eq!(buf.len(), 256);
/// buf[0] = 42;
/// scratch.put(buf);
/// let again = scratch.take();            // second take reuses the buffer
/// assert_eq!(again.len(), 256);
/// ```
#[derive(Debug, Default)]
pub struct PolyScratch {
    n: usize,
    bufs: Vec<Vec<u32>>,
}

impl PolyScratch {
    /// An empty arena for `n`-coefficient polynomials.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            bufs: Vec::new(),
        }
    }

    /// The polynomial length this arena serves.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Checks out an `n`-length buffer (contents unspecified). Reuses a
    /// returned buffer when one is available, allocates otherwise.
    #[must_use = "dropping the buffer forfeits the reuse; return it with put()"]
    pub fn take(&mut self) -> Vec<u32> {
        match self.bufs.pop() {
            Some(buf) => buf,
            None => vec![0u32; self.n],
        }
    }

    /// Returns a buffer to the arena for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's length differs from the arena's `n` — a
    /// misreturned buffer would silently corrupt a later operation.
    pub fn put(&mut self, buf: Vec<u32>) {
        assert_eq!(buf.len(), self.n, "returned buffer has the wrong length");
        self.bufs.push(buf);
    }

    /// Number of `u32` buffers currently parked in the arena (for tests
    /// and capacity diagnostics).
    pub fn parked(&self) -> usize {
        self.bufs.len()
    }

    /// Best-effort erasure of every parked buffer (the buffers stay
    /// parked for reuse). Secret-handling operations that route working
    /// polynomials through the arena — notably CCA decapsulation, whose
    /// decrypted candidate message transits a scratch buffer — call this
    /// before returning so a long-lived per-thread arena does not retain
    /// key-determining material between operations.
    pub fn scrub(&mut self) {
        for buf in &mut self.bufs {
            rlwe_zq::ct::zeroize_u32(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_storage() {
        let mut s = PolyScratch::new(8);
        let buf = s.take();
        let ptr = buf.as_ptr();
        s.put(buf);
        assert_eq!(s.parked(), 1);
        let buf2 = s.take();
        assert_eq!(buf2.as_ptr(), ptr, "the same allocation comes back");
        assert_eq!(s.parked(), 0);
    }

    #[test]
    fn scrub_erases_parked_buffers_in_place() {
        let mut s = PolyScratch::new(8);
        let mut a = s.take();
        a.fill(0xDEAD_BEEF);
        let ptr = a.as_ptr();
        s.put(a);
        s.scrub();
        let a = s.take();
        assert_eq!(a.as_ptr(), ptr, "the scrubbed buffer stays parked");
        assert!(a.iter().all(|&c| c == 0), "u32 buffer survived the scrub");
        s.put(a);
    }

    #[test]
    fn distinct_takes_are_distinct_buffers() {
        let mut s = PolyScratch::new(4);
        let a = s.take();
        let b = s.take();
        assert_ne!(a.as_ptr(), b.as_ptr());
        s.put(a);
        s.put(b);
        assert_eq!(s.parked(), 2);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn returning_a_foreign_buffer_panics() {
        let mut s = PolyScratch::new(8);
        s.put(vec![0u32; 7]);
    }
}
