//! [`Payload`]: the bytes of one published block, wherever they live.
//!
//! In one address space a block stays in the shared segment and consumers
//! hold [`BlockRef`] clones (zero copy). Across processes the dedicated
//! core copies each block out of the mapping once and shares that copy.
//! Consumers read both the same way.

use std::borrow::Cow;
use std::sync::Arc;

use crate::segment::{BlockRef, Pod};

/// A block's bytes: a refcounted view into the shared segment, or one
/// owned copy shared by every consumer that keeps it.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Refcounted view into the shared segment.
    Shm(BlockRef),
    /// Owned bytes, shared between consumers.
    Owned(Arc<Vec<u8>>),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Shm(b) => b.as_slice(),
            Payload::Owned(v) => v,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes as a typed slice: borrowed in place from the segment
    /// ([`Payload::Shm`]), decoded into a fresh vector from an owned copy
    /// (whose buffer carries no alignment guarantee).
    ///
    /// Panics if the length is not a multiple of `size_of::<T>()`, like
    /// [`BlockRef::as_pod`].
    pub fn as_pod<T: Pod>(&self) -> Cow<'_, [T]> {
        let bytes = match self {
            Payload::Shm(b) => return Cow::Borrowed(b.as_pod()),
            Payload::Owned(v) => v.as_slice(),
        };
        let size = std::mem::size_of::<T>();
        assert_eq!(
            bytes.len() % size,
            0,
            "payload of {} bytes is not a whole number of {size}-byte elements",
            bytes.len()
        );
        let values = bytes.chunks_exact(size).map(|c| {
            // SAFETY: `c` holds exactly size_of::<T>() bytes, the read
            // tolerates any alignment, and Pod types accept any bits.
            unsafe { c.as_ptr().cast::<T>().read_unaligned() }
        });
        Cow::Owned(values.collect())
    }
}

impl From<BlockRef> for Payload {
    fn from(block: BlockRef) -> Self {
        Payload::Shm(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedSegment;

    #[test]
    fn shm_and_owned_read_the_same() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[1.5f64, -2.0]);
        let shm = Payload::from(b.freeze());
        let owned = Payload::Owned(Arc::new(shm.as_slice().to_vec()));
        assert_eq!(shm.as_slice(), owned.as_slice());
        assert_eq!(shm.as_pod::<f64>()[..], [1.5, -2.0]);
        assert_eq!(owned.as_pod::<f64>()[..], [1.5, -2.0]);
        assert_eq!((owned.len(), owned.is_empty()), (16, false));
    }
}
