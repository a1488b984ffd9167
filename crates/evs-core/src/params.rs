//! The settable parameters of the EVS stack. Every other timing value is a
//! constant beside the code that reads it (see DESIGN.md's timing table).

/// Flow-control parameters for [`EvsProcess`](crate::EvsProcess), in
/// simulator ticks and bytes.
///
/// The defaults are tuned for the default [`evs_sim::NetConfig`] latency
/// range (1–5 ticks/hop): a five-process ring rotates every ~15 ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvsParams {
    /// Pause between receiving the token and forwarding it to the
    /// successor, on quiescent visits only: nothing left to stamp and
    /// every message ordered so far safe here. Any other visit forwards
    /// the token at once, since each hold adds to safe-delivery latency.
    /// Simulated networks pace the token through transmission latency
    /// anyway; on a live transport with microsecond channels, pacing is
    /// what keeps an idle ring from spinning at CPU speed.
    pub token_pace: u64,
    /// Maximum new messages stamped per token visit (flow control).
    pub max_per_visit: usize,
    /// Datagram budget in bytes shared by every layer that packs frames
    /// into one transmission unit: the live driver's `pack_frames` ring
    /// packing and a broker's batched-multicast flush both size against
    /// this bound. The default stays under the common 64 kB UDP payload
    /// ceiling with headroom for frame headers.
    pub max_datagram_bytes: usize,
}

impl Default for EvsParams {
    fn default() -> Self {
        EvsParams {
            token_pace: 2,
            max_per_visit: 16,
            max_datagram_bytes: 60_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TOKEN_RETX;

    #[test]
    fn defaults_are_consistent() {
        let p = EvsParams::default();
        // A paced hold ends before the predecessor retransmits the token.
        assert!(p.token_pace < TOKEN_RETX);
        assert!(p.max_per_visit > 0);
        // Room for at least one full-sized frame, under the UDP ceiling.
        assert!(p.max_datagram_bytes >= 1500 && p.max_datagram_bytes < 65_507);
    }
}
