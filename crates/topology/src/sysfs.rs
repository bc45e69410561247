//! Best-effort host topology discovery from Linux `/sys`.
//!
//! The paper's point (§3.1) is that OS-reported topology is *incomplete*:
//! `lscpu`-style sources expose hyperthreads, NUMA nodes and sockets, but
//! miss L3 cache groups. This module reads what Linux does expose —
//! useful as a starting hierarchy that the heatmap pipeline
//! ([`crate::cluster`]) can refine with the levels the OS missed.

use std::fs;
use std::path::Path;

use crate::hierarchy::{CpuId, Hierarchy, TopologyError};

/// Reads the host hierarchy from `/sys/devices/system/cpu`.
///
/// Levels discovered (innermost first, when present and non-trivial):
/// `core` (SMT siblings), `l3` (shared L3 from `cache/index3`), `numa`
/// (`node*` links), `package` (`physical_package_id`). A level that
/// partitions the CPUs exactly as the kept level below it does would only
/// add a redundant lock to every climb, so it is folded into that level,
/// whose name joins both (`l3=numa=package`).
///
/// # Errors
///
/// Fails if `/sys` is unreadable or reports no CPUs.
pub fn discover() -> Result<Hierarchy, TopologyError> {
    discover_from(Path::new("/sys/devices/system/cpu"))
}

/// [`discover`] with a custom sysfs root (testable).
pub fn discover_from(cpu_root: &Path) -> Result<Hierarchy, TopologyError> {
    let ncpus = count_cpus(cpu_root);
    if ncpus == 0 {
        return Err(TopologyError::Empty);
    }

    let mut maps: Vec<(String, Vec<usize>)> = Vec::new();
    if let Some(map) = key_map(cpu_root, ncpus, |root, cpu| {
        read_trimmed(&root.join(format!("cpu{cpu}/topology/core_id")))
            .zip(read_trimmed(&root.join(format!(
                "cpu{cpu}/topology/physical_package_id"
            ))))
            .map(|(core, pkg)| format!("{pkg}:{core}"))
    }) {
        maps.push(("core".to_string(), map));
    }
    if let Some(map) = key_map(cpu_root, ncpus, |root, cpu| {
        read_trimmed(&root.join(format!("cpu{cpu}/cache/index3/shared_cpu_list")))
    }) {
        maps.push(("l3".to_string(), map));
    }
    if let Some(map) = key_map(cpu_root, ncpus, |root, cpu| numa_of(root, cpu)) {
        maps.push(("numa".to_string(), map));
    }
    if let Some(map) = key_map(cpu_root, ncpus, |root, cpu| {
        read_trimmed(&root.join(format!("cpu{cpu}/topology/physical_package_id")))
    }) {
        maps.push(("package".to_string(), map));
    }

    // Drop levels that do not partition (trivial: one cohort per CPU or a
    // single cohort), keeping the hierarchy meaningful.
    maps.retain(|(_, map)| {
        let cohorts = map.iter().max().map(|&m| m + 1).unwrap_or(0);
        cohorts > 1 && cohorts < ncpus
    });
    // Dense maps number cohorts in order of first appearance, so equal
    // partitions have equal maps.
    let mut levels: Vec<(String, Vec<usize>)> = Vec::with_capacity(maps.len());
    for (name, map) in maps {
        match levels.last_mut() {
            Some((kept, below)) if *below == map => *kept = format!("{kept}={name}"),
            _ => levels.push((name, map)),
        }
    }
    if levels.is_empty() {
        return Hierarchy::flat(ncpus);
    }
    Hierarchy::from_levels(levels, ncpus)
}

fn count_cpus(cpu_root: &Path) -> usize {
    let mut n = 0;
    while cpu_root.join(format!("cpu{n}")).is_dir() {
        n += 1;
    }
    n
}

fn read_trimmed(path: &Path) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn numa_of(cpu_root: &Path, cpu: CpuId) -> Option<String> {
    let dir = cpu_root.join(format!("cpu{cpu}"));
    let entries = fs::read_dir(&dir).ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name.strip_prefix("node") {
            if id.chars().all(|c| c.is_ascii_digit()) {
                return Some(id.to_string());
            }
        }
    }
    None
}

/// Builds a dense cohort map from an arbitrary per-CPU key; `None` from
/// any CPU aborts the level (incomplete sysfs information).
fn key_map(
    cpu_root: &Path,
    ncpus: usize,
    mut key: impl FnMut(&Path, CpuId) -> Option<String>,
) -> Option<Vec<usize>> {
    let mut ids: Vec<String> = Vec::with_capacity(ncpus);
    for cpu in 0..ncpus {
        ids.push(key(cpu_root, cpu)?);
    }
    let mut dense: Vec<usize> = Vec::with_capacity(ncpus);
    let mut seen: Vec<String> = Vec::new();
    for id in ids {
        let idx = match seen.iter().position(|s| *s == id) {
            Some(i) => i,
            None => {
                seen.push(id);
                seen.len() - 1
            }
        };
        dense.push(idx);
    }
    Some(dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Builds a fake sysfs tree: 4 CPUs, 2 packages, SMT pairs, shared L3
    /// per package.
    fn fake_sysfs(dir: &Path) {
        for cpu in 0..4usize {
            let pkg = cpu / 2;
            let core = cpu % 2; // cpu0/cpu1 are cores 0/1 of pkg0, etc.
            let topo = dir.join(format!("cpu{cpu}/topology"));
            fs::create_dir_all(&topo).unwrap();
            fs::write(topo.join("core_id"), core.to_string()).unwrap();
            fs::write(topo.join("physical_package_id"), pkg.to_string()).unwrap();
            let cache = dir.join(format!("cpu{cpu}/cache/index3"));
            fs::create_dir_all(&cache).unwrap();
            let list = if pkg == 0 { "0-1" } else { "2-3" };
            fs::write(cache.join("shared_cpu_list"), list).unwrap();
            fs::create_dir_all(dir.join(format!("cpu{cpu}/node{pkg}"))).unwrap();
        }
    }

    #[test]
    fn discovers_fake_host() {
        let tmp = std::env::temp_dir().join(format!("clof-sysfs-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fake_sysfs(&tmp);
        let h = discover_from(&tmp).unwrap();
        assert_eq!(h.ncpus(), 4);
        // Every core is its own SMT group, so `core` partitions nothing,
        // and `l3`, `numa` and `package` are one partition: one level.
        assert_eq!(h.level_names(), ["l3=numa=package", "system"]);
        assert_eq!(h.shared_level(0, 1), 0);
        assert!(h.shared_level(0, 2) > 0);
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn empty_root_is_error() {
        let tmp = std::env::temp_dir().join(format!("clof-sysfs-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).unwrap();
        assert!(discover_from(&tmp).is_err());
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn real_host_discovery_is_well_formed_if_present() {
        // On machines with a readable sysfs this exercises the real path;
        // elsewhere it is skipped.
        if let Ok(h) = discover() {
            assert!(h.ncpus() >= 1);
            assert_eq!(h.cohort_count(h.level_count() - 1), 1);
        }
    }
}
