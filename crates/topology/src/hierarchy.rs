//! The hierarchy configuration: levels and cohort maps.

use std::fmt;

/// A CPU index, `0..ncpus`.
pub type CpuId = usize;

/// A cohort index within one level, `0..cohort_count(level)`.
pub type CohortId = usize;

/// An index into [`Hierarchy::levels`], `0` = innermost level.
pub type LevelIdx = usize;

/// Errors produced when building or validating a [`Hierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A level's cohort map does not cover every CPU.
    MapLengthMismatch {
        /// Offending level name.
        level: String,
        /// Entries found.
        found: usize,
        /// Entries expected (`ncpus`).
        expected: usize,
    },
    /// Cohort ids in a level are not dense `0..n`.
    SparseCohortIds {
        /// Offending level name.
        level: String,
    },
    /// Two CPUs share a cohort at an inner level but not at an outer one.
    NotNested {
        /// Inner level name.
        inner: String,
        /// Outer level name.
        outer: String,
        /// Witness CPU pair.
        cpus: (CpuId, CpuId),
    },
    /// A hierarchy must have at least one level and one CPU.
    Empty,
    /// The outermost level must group all CPUs into a single cohort.
    RootNotSingle {
        /// Number of cohorts found at the outermost level.
        cohorts: usize,
    },
    /// Parse error in the text configuration format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::MapLengthMismatch {
                level,
                found,
                expected,
            } => write!(
                f,
                "level `{level}`: cohort map has {found} entries, expected {expected}"
            ),
            TopologyError::SparseCohortIds { level } => {
                write!(f, "level `{level}`: cohort ids are not dense 0..n")
            }
            TopologyError::NotNested { inner, outer, cpus } => write!(
                f,
                "levels not nested: CPUs {} and {} share a `{inner}` cohort \
                 but not a `{outer}` cohort",
                cpus.0, cpus.1
            ),
            TopologyError::Empty => write!(f, "hierarchy needs at least one level and one CPU"),
            TopologyError::RootNotSingle { cohorts } => write!(
                f,
                "outermost level must have exactly 1 cohort, found {cohorts}"
            ),
            TopologyError::Parse { line, message } => {
                write!(f, "config parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// One level of the memory hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// Level name, e.g. `"cache-group"`.
    pub name: String,
    /// `cohort_of[cpu]` = cohort id of `cpu` at this level.
    pub cohort_of: Vec<CohortId>,
    /// Number of cohorts at this level.
    pub cohorts: usize,
}

/// A validated hierarchy configuration (the paper's blue "hierarchy
/// configuration" box in Figure 5).
///
/// Levels are ordered **innermost first**: `levels[0]` is the smallest
/// cohort (e.g. hyperthread pairs of one core) and the last level is
/// always the single system-wide cohort. The invariant maintained by all
/// constructors is *nesting*: if two CPUs share a cohort at level `i`,
/// they share one at every level `j > i`.
///
/// # Examples
///
/// ```
/// use clof_topology::Hierarchy;
///
/// // 8 CPUs: 4 pairs ("cache") inside 2 quads ("numa") inside the system.
/// let h = Hierarchy::regular(&[("cache", 2), ("numa", 4)], 8).unwrap();
/// assert_eq!(h.ncpus(), 8);
/// assert_eq!(h.level_count(), 3); // cache, numa, system
/// assert_eq!(h.shared_level(0, 1), 0); // same pair
/// assert_eq!(h.shared_level(0, 2), 1); // same quad
/// assert_eq!(h.shared_level(0, 7), 2); // system only
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    levels: Vec<Level>,
    ncpus: usize,
}

impl Hierarchy {
    /// Builds a hierarchy from named cohort maps, innermost first.
    ///
    /// A final system level (single cohort) is appended automatically if
    /// the last provided level has more than one cohort.
    pub fn from_levels(
        named_maps: Vec<(String, Vec<CohortId>)>,
        ncpus: usize,
    ) -> Result<Self, TopologyError> {
        if ncpus == 0 || named_maps.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut levels = Vec::with_capacity(named_maps.len() + 1);
        for (name, cohort_of) in named_maps {
            if cohort_of.len() != ncpus {
                return Err(TopologyError::MapLengthMismatch {
                    level: name,
                    found: cohort_of.len(),
                    expected: ncpus,
                });
            }
            let cohorts = match cohort_of.iter().max() {
                Some(&max) => max + 1,
                None => 0,
            };
            let mut seen = vec![false; cohorts];
            for &c in &cohort_of {
                seen[c] = true;
            }
            if seen.iter().any(|&s| !s) {
                return Err(TopologyError::SparseCohortIds { level: name });
            }
            levels.push(Level {
                name,
                cohort_of,
                cohorts,
            });
        }
        // Append the implicit system level if needed.
        if levels.last().map(|l| l.cohorts) != Some(1) {
            levels.push(Level {
                name: "system".to_string(),
                cohort_of: vec![0; ncpus],
                cohorts: 1,
            });
        }
        let h = Hierarchy { levels, ncpus };
        h.validate_nesting()?;
        Ok(h)
    }

    /// Builds a regular (balanced) hierarchy.
    ///
    /// `shape` lists, innermost first, `(level_name, cpus_per_cohort)`;
    /// each entry's cohort size must divide the next one's and `ncpus`.
    /// CPUs are numbered contiguously (CPU `c` belongs to cohort
    /// `c / cpus_per_cohort`).
    pub fn regular(shape: &[(&str, usize)], ncpus: usize) -> Result<Self, TopologyError> {
        let maps = shape
            .iter()
            .map(|&(name, size)| {
                let map = (0..ncpus).map(|c| c / size.max(1)).collect();
                (name.to_string(), map)
            })
            .collect();
        Self::from_levels(maps, ncpus)
    }

    /// A single-level ("system" only) hierarchy: the degenerate case in
    /// which a CLoF lock is just its basic system lock.
    pub fn flat(ncpus: usize) -> Result<Self, TopologyError> {
        Self::from_levels(vec![("system".to_string(), vec![0; ncpus])], ncpus)
    }

    fn validate_nesting(&self) -> Result<(), TopologyError> {
        if self.levels.last().map(|l| l.cohorts) != Some(1) {
            return Err(TopologyError::RootNotSingle {
                cohorts: self.levels.last().map(|l| l.cohorts).unwrap_or(0),
            });
        }
        for w in self.levels.windows(2) {
            let (inner, outer) = (&w[0], &w[1]);
            // For each inner cohort, all members must map to one outer
            // cohort.
            let mut outer_of_inner = vec![usize::MAX; inner.cohorts];
            for cpu in 0..self.ncpus {
                let ic = inner.cohort_of[cpu];
                let oc = outer.cohort_of[cpu];
                if outer_of_inner[ic] == usize::MAX {
                    outer_of_inner[ic] = oc;
                } else if outer_of_inner[ic] != oc {
                    let witness = (0..self.ncpus)
                        .find(|&c| inner.cohort_of[c] == ic && outer.cohort_of[c] != oc)
                        .unwrap_or(cpu);
                    return Err(TopologyError::NotNested {
                        inner: inner.name.clone(),
                        outer: outer.name.clone(),
                        cpus: (witness, cpu),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// Number of levels, including the system level.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The levels, innermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Level names, innermost first.
    pub fn level_names(&self) -> Vec<&str> {
        self.levels.iter().map(|l| l.name.as_str()).collect()
    }

    /// Cohort of `cpu` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` or `level` is out of range.
    pub fn cohort(&self, level: LevelIdx, cpu: CpuId) -> CohortId {
        self.levels[level].cohort_of[cpu]
    }

    /// Number of cohorts at `level`.
    pub fn cohort_count(&self, level: LevelIdx) -> usize {
        self.levels[level].cohorts
    }

    /// Average number of CPUs spanned by one cohort at `level` (at least
    /// 1): the topology-distance measure the waiting layer derives
    /// per-level spin budgets from. Inner levels span few CPUs (waiters
    /// are cache-close, a hand-off is cheap, spinning longer pays off);
    /// the outermost level spans the machine (a waiting slot is
    /// expensive, park soon).
    pub fn cohort_span(&self, level: LevelIdx) -> usize {
        (self.ncpus / self.cohort_count(level)).max(1)
    }

    /// The path of cohort ids of `cpu`, innermost level first.
    pub fn path(&self, cpu: CpuId) -> Vec<CohortId> {
        self.levels.iter().map(|l| l.cohort_of[cpu]).collect()
    }

    /// The innermost level at which `a` and `b` share a cohort.
    ///
    /// Two distinct CPUs always share the system level; `shared_level(a, a)`
    /// is `0` by convention (same innermost cohort).
    pub fn shared_level(&self, a: CpuId, b: CpuId) -> LevelIdx {
        for (i, level) in self.levels.iter().enumerate() {
            if level.cohort_of[a] == level.cohort_of[b] {
                return i;
            }
        }
        self.levels.len() - 1
    }

    /// CPUs belonging to cohort `cohort` of `level`.
    pub fn cohort_members(&self, level: LevelIdx, cohort: CohortId) -> Vec<CpuId> {
        (0..self.ncpus)
            .filter(|&c| self.levels[level].cohort_of[c] == cohort)
            .collect()
    }

    /// Derives a new hierarchy keeping only the selected levels (by name),
    /// the paper's first *tuning point* (§5.2.1: e.g. skip the package
    /// level on x86, skip the core level on Armv8).
    ///
    /// The system level is always retained. Returns an error if a name is
    /// unknown.
    pub fn select_levels(&self, names: &[&str]) -> Result<Self, TopologyError> {
        for n in names {
            if !self.levels.iter().any(|l| &l.name == n) {
                return Err(TopologyError::Parse {
                    line: 0,
                    message: format!("unknown level `{n}`"),
                });
            }
        }
        let maps = self
            .levels
            .iter()
            .filter(|l| names.contains(&l.name.as_str()) && l.cohorts > 1)
            .map(|l| (l.name.clone(), l.cohort_of.clone()))
            .collect::<Vec<_>>();
        if maps.is_empty() {
            return Self::flat(self.ncpus);
        }
        Self::from_levels(maps, self.ncpus)
    }

    /// Number of *locks* a CLoF tree over this hierarchy instantiates:
    /// one per cohort per level.
    pub fn total_cohorts(&self) -> usize {
        self.levels.iter().map(|l| l.cohorts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_two_level() {
        let h = Hierarchy::regular(&[("numa", 4)], 8).unwrap();
        assert_eq!(h.level_count(), 2);
        assert_eq!(h.cohort_count(0), 2);
        assert_eq!(h.cohort_count(1), 1);
        assert_eq!(h.cohort(0, 3), 0);
        assert_eq!(h.cohort(0, 4), 1);
    }

    #[test]
    fn flat_hierarchy() {
        let h = Hierarchy::flat(4).unwrap();
        assert_eq!(h.level_count(), 1);
        assert_eq!(h.shared_level(0, 3), 0);
    }

    #[test]
    fn cohort_span_grows_outwards() {
        // `regular` takes CPUs per cohort: 2 per cache, 4 per NUMA node.
        let h = Hierarchy::regular(&[("cache", 2), ("numa", 4)], 16).unwrap();
        assert_eq!(h.cohort_span(0), 2);
        assert_eq!(h.cohort_span(1), 4);
        assert_eq!(h.cohort_span(2), 16);
        let flat = Hierarchy::flat(1).unwrap();
        assert_eq!(flat.cohort_span(0), 1, "span is at least 1");
    }

    #[test]
    fn shared_level_and_path() {
        let h = Hierarchy::regular(&[("cache", 2), ("numa", 4)], 16).unwrap();
        assert_eq!(h.path(5), vec![2, 1, 0]);
        assert_eq!(h.shared_level(4, 5), 0);
        assert_eq!(h.shared_level(4, 6), 1);
        assert_eq!(h.shared_level(4, 9), 2);
        assert_eq!(h.shared_level(7, 7), 0);
    }

    #[test]
    fn cohort_members() {
        let h = Hierarchy::regular(&[("pair", 2)], 6).unwrap();
        assert_eq!(h.cohort_members(0, 1), vec![2, 3]);
        assert_eq!(h.cohort_members(1, 0), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rejects_non_nested() {
        // Inner pairs {0,1},{2,3}; outer groups {0,2},{1,3}: not nested.
        let res = Hierarchy::from_levels(
            vec![
                ("inner".into(), vec![0, 0, 1, 1]),
                ("outer".into(), vec![0, 1, 0, 1]),
            ],
            4,
        );
        assert!(matches!(res, Err(TopologyError::NotNested { .. })));
    }

    #[test]
    fn rejects_sparse_ids() {
        let res = Hierarchy::from_levels(vec![("l".into(), vec![0, 2, 2, 0])], 4);
        assert!(matches!(res, Err(TopologyError::SparseCohortIds { .. })));
    }

    #[test]
    fn rejects_wrong_length() {
        let res = Hierarchy::from_levels(vec![("l".into(), vec![0, 0])], 4);
        assert!(matches!(res, Err(TopologyError::MapLengthMismatch { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Hierarchy::from_levels(vec![], 4), Err(TopologyError::Empty));
        let res = Hierarchy::regular(&[("l", 1)], 0);
        assert_eq!(res, Err(TopologyError::Empty));
    }

    #[test]
    fn implicit_system_level_appended() {
        let h = Hierarchy::from_levels(vec![("numa".into(), vec![0, 0, 1, 1])], 4).unwrap();
        assert_eq!(h.level_names(), vec!["numa", "system"]);
    }

    #[test]
    fn explicit_system_level_kept() {
        let h = Hierarchy::from_levels(
            vec![
                ("numa".into(), vec![0, 0, 1, 1]),
                ("system".into(), vec![0, 0, 0, 0]),
            ],
            4,
        )
        .unwrap();
        assert_eq!(h.level_count(), 2);
    }

    #[test]
    fn select_levels_subsets() {
        let h = Hierarchy::regular(&[("core", 2), ("cache", 4), ("numa", 8)], 16).unwrap();
        let s = h.select_levels(&["cache", "numa"]).unwrap();
        assert_eq!(s.level_names(), vec!["cache", "numa", "system"]);
        assert_eq!(s.shared_level(0, 1), 0); // cache cohort of 4 CPUs
        let err = h.select_levels(&["bogus"]);
        assert!(err.is_err());
    }

    #[test]
    fn select_no_levels_gives_flat() {
        let h = Hierarchy::regular(&[("numa", 4)], 8).unwrap();
        let s = h.select_levels(&[]).unwrap();
        assert_eq!(s.level_count(), 1);
    }

    #[test]
    fn total_cohorts_counts_all_levels() {
        let h = Hierarchy::regular(&[("cache", 2), ("numa", 4)], 8).unwrap();
        // 4 cache cohorts + 2 numa cohorts + 1 system.
        assert_eq!(h.total_cohorts(), 7);
    }
}
