//! Where a simulated process's stable storage lives.
//!
//! The paper's processes recover "with stable storage intact" (§2). Here
//! that storage is the node's own: the EVS engine journals to the
//! write-ahead log behind its `evs_store::Storage`, which the node value
//! holds across a crash, and replays it on recovery. The simulator hands
//! out no store of its own.

/// An empty placeholder that [`Ctx::detached`](crate::Ctx::detached)
/// accepts and ignores. It holds nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct StableStore;

impl StableStore {
    /// The placeholder.
    pub fn new() -> Self {
        StableStore
    }
}
