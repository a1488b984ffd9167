//! Zero-copy application payloads.
//!
//! A [`Payload`] is a view: a shared, immutable `Arc<[u8]>` buffer plus
//! the byte range of it that is the payload. A payload built by the
//! application ([`From<Vec<u8>>`](Payload#impl-From<Vec<u8>>-for-Payload),
//! [`Payload::copy_from_slice`]) views its whole buffer. The wire decoder
//! copies each data-carrying frame once, into one buffer, and hands out
//! every payload of the frame as a view into it (see [`crate::wire`]): a
//! 16-message batch costs one payload allocation, not sixteen.
//!
//! The rule that comes with views: a view holds its whole buffer. A
//! payload decoded from a batch keeps the batch's buffer — its sibling
//! payloads and the message headers between them — alive until the last
//! view of it is dropped. For a lone `Data` or `Rebroadcast` frame the
//! buffer is exactly the payload bytes, so nothing else is retained.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable application payload.
///
/// The hot path of the stack holds the same payload bytes in many places at
/// once: the ring store keeps every stamped message for retransmission, the
/// simulator and live driver fan a broadcast out to every destination, link
/// faults duplicate packets, and recovery rebroadcasts hand whole stores
/// across configurations. With a `Vec<u8>` payload each of those is a fresh
/// allocation and copy; `Payload` views a range of an `Arc<[u8]>` so every
/// copy is a reference-count bump on one shared backing buffer.
///
/// The buffer is built once (from a `Vec<u8>`, a slice or a decoded frame)
/// and immutable from then on, which is exactly the lifecycle of a message
/// payload. Equality and hashing look only at the viewed bytes: a view and
/// an owned copy of the same bytes are equal and hash alike.
///
/// # Examples
///
/// ```
/// use evs_core::Payload;
///
/// let p = Payload::from(vec![1, 2, 3]);
/// let q = p.clone(); // no copy: same backing buffer
/// assert!(p.ptr_eq(&q));
/// assert_eq!(&*q, &[1, 2, 3]);
/// ```
#[derive(Clone, Default)]
pub struct Payload {
    buf: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl Payload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new payload buffer.
    ///
    /// # Panics
    ///
    /// If `data` is longer than `u32::MAX` bytes: a payload never
    /// truncates.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Payload::whole(Arc::from(data))
    }

    /// A view of all of `buf`.
    fn whole(buf: Arc<[u8]>) -> Self {
        let len = u32::try_from(buf.len()).expect("a payload is at most u32::MAX bytes");
        Payload { buf, start: 0, len }
    }

    /// A view of `buf[start..start + len]`. The wire decoder's constructor:
    /// it checks the range against the frame before it builds a view.
    pub(crate) fn view(buf: &Arc<[u8]>, start: u32, len: u32) -> Self {
        debug_assert!(start as usize + len as usize <= buf.len());
        Payload {
            buf: Arc::clone(buf),
            start,
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// True if `self` and `other` view the same range of the same backing
    /// buffer — the zero-copy property itself, checkable in tests. Two
    /// views of one decoded frame over different ranges are not `ptr_eq`.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.start == other.start && self.len == other.len
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Payload {
    /// # Panics
    ///
    /// If `data` is longer than `u32::MAX` bytes.
    fn from(data: Vec<u8>) -> Self {
        Payload::whole(Arc::from(data))
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Self {
        Payload::copy_from_slice(data)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(data: &[u8; N]) -> Self {
        Payload::copy_from_slice(data)
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Payloads can be large; show the length and a short prefix.
        write!(f, "Payload[{}b", self.len())?;
        for b in self.iter().take(8) {
            write!(f, " {b:02x}")?;
        }
        if self.len() > 8 {
            write!(f, " ..")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivery, EvsCluster, Service};
    use evs_sim::ProcessId;

    #[test]
    fn clones_share_one_backing_buffer() {
        let a = Payload::from(vec![9u8; 1024]);
        let b = a.clone();
        let c = b.clone();
        assert!(a.ptr_eq(&b) && b.ptr_eq(&c));
        assert_eq!(a, c);
        // Distinct allocations with equal contents are == but not aliased.
        let d = Payload::from(vec![9u8; 1024]);
        assert_eq!(a, d);
        assert!(!a.ptr_eq(&d));
    }

    #[test]
    fn views_of_one_buffer_are_their_ranges() {
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        let buf: Arc<[u8]> = Arc::from(&b"headerPAYLOADtail"[..]);
        let body = Payload::view(&buf, 6, 7);
        let tail = Payload::view(&buf, 13, 4);
        assert_eq!((&*body, body.len()), (&b"PAYLOAD"[..], 7));
        assert_eq!(tail.as_slice(), b"tail");
        assert_eq!(body, Payload::from(b"PAYLOAD"));
        assert!(body.ptr_eq(&body.clone()) && !body.ptr_eq(&tail));
        assert!(Payload::view(&buf, 17, 0).is_empty());
        assert_eq!(format!("{body:?}"), "Payload[7b 50 41 59 4c 4f 41 44]");
    }

    #[test]
    fn debug_shows_length_and_prefix() {
        let p = Payload::from(&[0xAB; 12]);
        let s = format!("{p:?}");
        assert!(s.starts_with("Payload[12b ab"), "{s}");
        assert!(s.ends_with("..]"), "{s}");
        assert_eq!(format!("{:?}", Payload::new()), "Payload[0b]");
    }

    /// The zero-copy claim end to end: a payload submitted to a 3-process
    /// cluster is delivered at *every* process — after travelling through
    /// the ring store, the broadcast fan-out and the delivery log — still
    /// aliasing the submitter's original buffer.
    #[test]
    fn delivery_aliases_the_submitted_buffer() {
        let mut cluster = EvsCluster::<Payload>::builder(3).build();
        assert!(cluster.run_until_settled(400_000), "formation stalled");
        let body = Payload::from(vec![0x5A; 64]);
        cluster.submit(ProcessId::new(0), Service::Agreed, body.clone());
        cluster.run_for(20_000);
        for p in cluster.processes() {
            let delivered = cluster
                .deliveries(p)
                .iter()
                .find_map(|d| match d {
                    Delivery::Message { payload, .. } if payload == &body => Some(payload),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{p} never delivered the payload"));
            assert!(
                delivered.ptr_eq(&body),
                "{p}'s delivered copy is a separate allocation"
            );
        }
    }
}
