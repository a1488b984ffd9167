//! The settable parameters of the EVS stack. Every other timing value is a
//! constant beside the code that reads it (see DESIGN.md's timing table).

use crate::engine::TOKEN_RETX;

/// Flow-control parameters for [`EvsProcess`](crate::EvsProcess), in
/// simulator ticks and bytes.
///
/// The defaults are tuned for the default [`evs_sim::NetConfig`] latency
/// range (1–5 ticks/hop): an idle five-process ring parks its token for
/// 10 ticks and rotates every ~25.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvsParams {
    /// The idle token's pause per ring member. A quiescent ring (nothing
    /// left to stamp, every message ordered so far safe) parks its token
    /// at one member, the one that stamped the newest ordinal (or the
    /// representative, if none was stamped), for `token_pace` ticks per
    /// member — the rotation time of a ring that paused `token_pace` at
    /// every member — capped below the token's retransmission timeout.
    /// Every other visit forwards the token at once, since each hold adds
    /// to safe-delivery latency, and a submission elsewhere calls the
    /// parked token over with a `Wake`, so it never waits out the pause.
    /// Simulated networks pace the token through transmission latency
    /// anyway; on a live transport with microsecond channels, the pause is
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

impl EvsParams {
    /// How long a ring of `members` parks its idle token: `token_pace` a
    /// member, capped so that the hold alone never reaches the
    /// predecessor's retransmission timeout.
    pub(crate) fn idle_hold(&self, members: usize) -> u64 {
        (members as u64)
            .saturating_mul(self.token_pace)
            .min(TOKEN_RETX - 1)
    }
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

    #[test]
    fn defaults_are_consistent() {
        let p = EvsParams::default();
        // The one idle hold ends before the predecessor retransmits the
        // token, on a ring of any size and at any pace.
        assert_eq!(p.idle_hold(5), 5 * p.token_pace);
        for members in [1, 2, 5, 8, 1_000] {
            assert!(p.idle_hold(members) < TOKEN_RETX);
            let slow = EvsParams {
                token_pace: u64::MAX,
                ..p.clone()
            };
            assert!(slow.idle_hold(members) < TOKEN_RETX);
        }
        assert!(p.max_per_visit > 0);
        // Room for at least one full-sized frame, under the UDP ceiling.
        assert!(p.max_datagram_bytes >= 1500 && p.max_datagram_bytes < 65_507);
    }
}
