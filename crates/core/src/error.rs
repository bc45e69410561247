//! Errors of the composition framework.

use std::fmt;

use crate::kind::LockKind;

/// Errors produced when building, generating or acquiring CLoF locks.
///
/// Marked `#[non_exhaustive]`: robustness features keep adding failure
/// modes (deadline timeouts, poisoning), so downstream `match`es must
/// carry a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClofError {
    /// The composition does not name one lock per hierarchy level.
    LevelCountMismatch {
        /// Locks named in the composition.
        locks: usize,
        /// Levels in the hierarchy (including the system level).
        levels: usize,
    },
    /// A fair composition was requested but a component is unfair
    /// (paper Theorem 4.1: the composition is fair only if every basic
    /// lock is).
    UnfairComponent {
        /// The offending component.
        kind: LockKind,
        /// Level index (0 = innermost) where it was placed.
        level: usize,
    },
    /// An unknown lock name was given to [`LockKind::parse`].
    UnknownLock {
        /// The unrecognized name.
        name: String,
    },
    /// The keep-local threshold must be at least 1.
    BadThreshold,
    /// Runtime adaptation was requested on a lock choice that cannot
    /// hot-swap (only the dynamic CLoF composition can).
    AdaptationUnsupported {
        /// Name of the non-adaptable lock choice.
        choice: String,
    },
    /// A deadline-bounded acquisition was requested on a lock choice
    /// whose algorithm has no bounded-wait protocol (the baseline locks
    /// — their unmodified protocols are the comparison point, so they
    /// get no abandonment retrofit).
    DeadlineUnsupported {
        /// Name of the lock choice without a bounded acquire.
        choice: String,
    },
    /// A deadline-bounded acquisition ran out of time before the lock
    /// was granted. The attempt left no residue: every partially
    /// acquired level was released and every queue position abandoned
    /// or handed forward.
    Timeout,
    /// The lock was poisoned: a holder panicked inside its critical
    /// section, so the protected data may be in a torn state. Recovery
    /// goes through `clear_poison`-style APIs on the owning wrapper.
    Poisoned,
}

impl fmt::Display for ClofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClofError::LevelCountMismatch { locks, levels } => write!(
                f,
                "composition names {locks} locks but the hierarchy has {levels} levels"
            ),
            ClofError::UnfairComponent { kind, level } => write!(
                f,
                "unfair lock `{}` at level {level}: the composition would not be \
                 starvation-free (pass `allow_unfair` to permit this)",
                kind.info().name
            ),
            ClofError::UnknownLock { name } => write!(f, "unknown lock name `{name}`"),
            ClofError::BadThreshold => write!(f, "keep-local threshold must be >= 1"),
            ClofError::AdaptationUnsupported { choice } => write!(
                f,
                "lock choice `{choice}` cannot adapt at run time; only the dynamic \
                 CLoF composition supports hot-swapping"
            ),
            ClofError::DeadlineUnsupported { choice } => write!(
                f,
                "lock choice `{choice}` has no deadline-bounded acquire; use a CLoF \
                 composition"
            ),
            ClofError::Timeout => write!(f, "lock acquisition timed out"),
            ClofError::Poisoned => write!(f, "lock poisoned by a panicked holder"),
            // `#[non_exhaustive]` is for downstream crates; within the
            // crate the match is still exhaustive, but keep a wildcard
            // so adding a variant cannot break Display in a hotfix.
            #[allow(unreachable_patterns)]
            _ => write!(f, "clof error"),
        }
    }
}

impl std::error::Error for ClofError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    /// One of each variant, for Display/source coverage.
    fn all_variants() -> Vec<ClofError> {
        vec![
            ClofError::LevelCountMismatch { locks: 2, levels: 3 },
            ClofError::UnfairComponent {
                kind: LockKind::Ttas,
                level: 1,
            },
            ClofError::UnknownLock {
                name: "nope".into(),
            },
            ClofError::BadThreshold,
            ClofError::AdaptationUnsupported {
                choice: "mcs".into(),
            },
            ClofError::DeadlineUnsupported {
                choice: "hmcs".into(),
            },
            ClofError::Timeout,
            ClofError::Poisoned,
        ]
    }

    #[test]
    fn display_is_nonempty_and_distinct_for_every_variant() {
        let rendered: Vec<String> = all_variants().iter().map(|e| e.to_string()).collect();
        for (i, msg) in rendered.iter().enumerate() {
            assert!(!msg.is_empty(), "variant {i} renders empty");
            for later in &rendered[i + 1..] {
                assert_ne!(msg, later, "two variants render identically");
            }
        }
    }

    #[test]
    fn source_is_none_for_leaf_errors() {
        for e in all_variants() {
            assert!(e.source().is_none(), "{e}");
        }
    }

    #[test]
    fn timeout_and_poison_messages_name_the_failure() {
        assert!(ClofError::Timeout.to_string().contains("timed out"));
        assert!(ClofError::Poisoned.to_string().contains("poisoned"));
    }
}
