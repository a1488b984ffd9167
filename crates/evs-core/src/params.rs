//! Tunable timing parameters of the EVS stack.

use evs_membership::MembershipParams;

/// Timing and flow-control parameters for [`EvsProcess`](crate::EvsProcess),
/// in simulator ticks.
///
/// The defaults are tuned for the default [`evs_sim::NetConfig`] latency
/// range (1–5 ticks/hop): membership converges within a few hundred ticks
/// and a five-process ring rotates every ~15 ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvsParams {
    /// Parameters of the underlying membership protocol.
    pub membership: MembershipParams,
    /// Pause between receiving the token and forwarding it to the
    /// successor, on quiescent visits only: nothing left to stamp and
    /// every message ordered so far safe here. Any other visit forwards
    /// the token at once, since each hold adds to safe-delivery latency.
    /// Simulated networks pace the token through transmission latency
    /// anyway; on a live transport with microsecond channels, pacing is
    /// what keeps an idle ring from spinning at CPU speed.
    pub token_pace: u64,
    /// Quiet time after forwarding the token before retransmitting it
    /// the first time. Consecutive retransmissions of the same forward
    /// back off exponentially from this base.
    pub token_retx: u64,
    /// Upper bound of the retransmission backoff: the quiet time never
    /// exceeds this many ticks however many retries have fired.
    pub token_retx_max: u64,
    /// How many times one forwarded token is retransmitted before the
    /// ring gives up and leaves the loss to the token-loss timeout.
    pub token_retx_limit: u32,
    /// No token sighting for this long (in a multi-member regular
    /// configuration) forces a membership reconfiguration — Totem's
    /// token-loss timeout.
    pub token_loss: u64,
    /// Period for re-broadcasting recovery-state messages (exchange
    /// reports, rebroadcasts, acknowledgments) while a recovery is in
    /// progress, so packet loss cannot wedge the recovery.
    pub recovery_resend: u64,
    /// An in-progress recovery receiving no *new* exchange report or
    /// acknowledgment for this long forces a fresh membership round —
    /// the recovery-level analogue of the token-loss timeout, so Steps
    /// 1–6 make progress under sustained loss instead of wedging on a
    /// proposal member that will never report.
    pub recovery_stall: u64,
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
            membership: MembershipParams::default(),
            token_pace: 2,
            token_retx: 64,
            token_retx_max: 512,
            token_retx_limit: 6,
            token_loss: 400,
            recovery_resend: 96,
            recovery_stall: 800,
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
        assert!(p.token_pace < p.token_retx);
        assert!(p.token_loss > p.token_retx);
        // The backoff cap sits between the base and the point where the
        // token-loss detector takes over entirely.
        assert!(p.token_retx_max >= p.token_retx);
        assert!(p.token_retx_limit >= 1);
        // Several resend rounds fit inside one stall window, so the stall
        // timeout only fires when the resends themselves are not landing.
        assert!(p.recovery_stall >= 4 * p.recovery_resend);
        assert!(p.max_per_visit > 0);
        // Room for at least one full-sized frame, under the UDP ceiling.
        assert!(p.max_datagram_bytes >= 1500 && p.max_datagram_bytes < 65_507);
    }
}
