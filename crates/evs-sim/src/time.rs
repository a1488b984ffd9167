//! Simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in abstract ticks since the start of
/// the run.
///
/// The simulator is a discrete-event system: time advances only when the next
/// queued event is popped, so a tick has no fixed wall-clock meaning. By
/// convention the built-in protocol parameters treat one tick as roughly a
/// microsecond, but nothing depends on that reading.
///
/// # Examples
///
/// ```
/// use evs_sim::SimTime;
///
/// let t = SimTime::ZERO + 5;
/// assert_eq!(t.ticks(), 5);
/// assert!(t < t + 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference between two times, as a tick count.
    ///
    /// # Examples
    ///
    /// ```
    /// use evs_sim::SimTime;
    /// assert_eq!(SimTime::from_ticks(7).since(SimTime::from_ticks(3)), 4);
    /// assert_eq!(SimTime::from_ticks(3).since(SimTime::from_ticks(7)), 0);
    /// ```
    pub const fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, ticks: u64) -> SimTime {
        SimTime(self.0 + ticks)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ticks: u64) {
        self.0 += ticks;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ticks(10);
        assert_eq!((t + 5).ticks(), 15);
        assert_eq!(t + 5 - t, 5);
        let mut u = t;
        u += 3;
        assert_eq!(u.ticks(), 13);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_ticks(1));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
