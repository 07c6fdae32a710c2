//! Message instance identity.

use std::fmt;

/// Identifier of one **message instance**: a single `bcast` together with
/// all the `rcv`/`ack`/`abort` events it causes (the paper's cause-function
/// equivalence class).
///
/// Instance ids are assigned sequentially in broadcast order, so
/// `a < b` implies instance `a` started no later than instance `b`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(u64);

impl InstanceId {
    /// Creates an instance id from its sequence number.
    pub const fn new(seq: u64) -> InstanceId {
        InstanceId(seq)
    }

    /// The sequence number (creation order) of this instance.
    pub const fn seq(self) -> u64 {
        self.0
    }

    /// The sequence number as a dense index, for observers that keep
    /// per-instance state in a vector.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_creation_order() {
        assert!(InstanceId::new(1) < InstanceId::new(2));
        assert_eq!(InstanceId::new(5).seq(), 5);
        assert_eq!(InstanceId::new(5).index(), 5);
        assert_eq!(format!("{}", InstanceId::new(3)), "i3");
    }
}
