//! Player activity stages (§2.1).

use serde::{Deserialize, Serialize};

/// The player activity stage within a cloud gaming session.
///
/// The paper classifies the three gameplay stages (idle, passive, active)
/// continuously; `Launch` is the opening-animation period every session
/// starts with, during which the title classifier operates instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Game launch: the per-title opening animation streamed from the cloud.
    Launch,
    /// Idle: lobby, menus, matchmaking, static scenes — low traffic in both
    /// directions.
    Idle,
    /// Passive: spectating (after elimination, cutscenes) — high downstream,
    /// low upstream.
    Passive,
    /// Active: engaged gameplay — high traffic in both directions.
    Active,
}

impl Stage {
    /// The three classifiable gameplay stages (excludes `Launch`), in the
    /// class-id order used by the stage classifier.
    pub const GAMEPLAY: [Stage; 3] = [Stage::Idle, Stage::Passive, Stage::Active];

    /// All four stages.
    pub const ALL: [Stage; 4] = [Stage::Launch, Stage::Idle, Stage::Passive, Stage::Active];

    /// Class id of a gameplay stage (idle 0, passive 1, active 2).
    /// `Launch` has no class id — the stage classifier never emits it.
    pub fn class_id(self) -> Option<usize> {
        Stage::GAMEPLAY.iter().position(|s| *s == self)
    }

    /// True for the three gameplay stages.
    pub fn is_gameplay(self) -> bool {
        self != Stage::Launch
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Launch => write!(f, "launch"),
            Stage::Idle => write!(f, "idle"),
            Stage::Passive => write!(f, "passive"),
            Stage::Active => write!(f, "active"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ids_index_the_gameplay_stages() {
        for (i, s) in Stage::GAMEPLAY.into_iter().enumerate() {
            assert_eq!(s.class_id(), Some(i));
        }
        assert_eq!(Stage::Launch.class_id(), None);
    }

    #[test]
    fn launch_is_not_gameplay() {
        assert!(!Stage::Launch.is_gameplay());
        assert!(Stage::GAMEPLAY.iter().all(|s| s.is_gameplay()));
    }

    #[test]
    fn display() {
        assert_eq!(Stage::Passive.to_string(), "passive");
    }
}
