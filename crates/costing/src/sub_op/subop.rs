//! The sub-operator inventory of Fig. 5.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Fig. 5's sub-operators with their paper symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubOp {
    /// `rD` — reading a record from the distributed file system.
    ReadDfs,
    /// `wD` — writing a record to the distributed file system.
    WriteDfs,
    /// `rL` — reading a record from the local file system.
    ReadLocal,
    /// `wL` — writing a record to the local file system.
    WriteLocal,
    /// `f` — shuffling a record between machines.
    Shuffle,
    /// `b` — broadcasting a record to all machines.
    Broadcast,
    /// `o` — main-memory sort cost per record.
    Sort,
    /// `c` — main-memory scan cost per record.
    Scan,
    /// `hI` — inserting a record into a hash table.
    HashBuild,
    /// `hP` — probing a hash table.
    HashProbe,
    /// `m` — merging two records.
    RecMerge,
}

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for SubOp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for SubOp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Fig. 5 splits the sub-ops into two tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubOpCategory {
    /// "Kind of mandatory to learn, otherwise it would not make sense for
    /// the corresponding remote system to be costed using this approach."
    Basic,
    /// "Good to have, but missing them is not a hinder" — defaults exist.
    Specific,
}

impl SubOp {
    /// All sub-ops in Fig. 5 order.
    pub const ALL: [SubOp; 11] = [
        SubOp::ReadDfs,
        SubOp::WriteDfs,
        SubOp::ReadLocal,
        SubOp::WriteLocal,
        SubOp::Shuffle,
        SubOp::Broadcast,
        SubOp::Sort,
        SubOp::Scan,
        SubOp::HashBuild,
        SubOp::HashProbe,
        SubOp::RecMerge,
    ];

    /// The paper's symbol (`rD`, `wD`, …).
    pub fn symbol(self) -> &'static str {
        match self {
            SubOp::ReadDfs => "rD",
            SubOp::WriteDfs => "wD",
            SubOp::ReadLocal => "rL",
            SubOp::WriteLocal => "wL",
            SubOp::Shuffle => "f",
            SubOp::Broadcast => "b",
            SubOp::Sort => "o",
            SubOp::Scan => "c",
            SubOp::HashBuild => "hI",
            SubOp::HashProbe => "hP",
            SubOp::RecMerge => "m",
        }
    }

    /// Basic vs Specific per Fig. 5.
    pub fn category(self) -> SubOpCategory {
        match self {
            SubOp::ReadDfs
            | SubOp::WriteDfs
            | SubOp::ReadLocal
            | SubOp::WriteLocal
            | SubOp::Shuffle
            | SubOp::Broadcast => SubOpCategory::Basic,
            SubOp::Sort | SubOp::Scan | SubOp::HashBuild | SubOp::HashProbe | SubOp::RecMerge => {
                SubOpCategory::Specific
            }
        }
    }
}

impl fmt::Display for SubOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SubOp::ReadDfs => "Read (DFS)",
            SubOp::WriteDfs => "Write (DFS)",
            SubOp::ReadLocal => "Read (Local)",
            SubOp::WriteLocal => "Write (Local)",
            SubOp::Shuffle => "Shuffle",
            SubOp::Broadcast => "Broadcast",
            SubOp::Sort => "Sort",
            SubOp::Scan => "Scan",
            SubOp::HashBuild => "HashTable Build",
            SubOp::HashProbe => "HashTable Probe",
            SubOp::RecMerge => "Rec Merge",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_subops_with_unique_symbols() {
        let symbols: std::collections::HashSet<&str> =
            SubOp::ALL.iter().map(|s| s.symbol()).collect();
        assert_eq!(symbols.len(), 11);
    }

    #[test]
    fn categories_match_fig5() {
        assert_eq!(SubOp::ReadDfs.category(), SubOpCategory::Basic);
        assert_eq!(SubOp::Broadcast.category(), SubOpCategory::Basic);
        assert_eq!(SubOp::HashBuild.category(), SubOpCategory::Specific);
        assert_eq!(SubOp::RecMerge.category(), SubOpCategory::Specific);
        let basic = SubOp::ALL
            .iter()
            .filter(|s| s.category() == SubOpCategory::Basic)
            .count();
        assert_eq!(basic, 6);
    }

    #[test]
    fn display_names_match_fig5() {
        assert_eq!(SubOp::ReadDfs.to_string(), "Read (DFS)");
        assert_eq!(SubOp::RecMerge.to_string(), "Rec Merge");
    }
}
