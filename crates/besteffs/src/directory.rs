//! Write-once named objects with versioned updates.
//!
//! Besteffs objects "are read-only and write once with versioned updates"
//! (§4.1): a logical name never changes content in place — each update
//! creates a new version with its own object id (and its own temporal
//! importance annotation). The directory maps names to version histories.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Content, Deserialize, Error, Serialize};
use sim_core::fx::FxHashMap;
use temporal_importance::ObjectId;

use crate::overlay::NodeId;

/// A logical object name (e.g. `"os-course/lecture-17"`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ObjectName(String);

impl ObjectName {
    /// Creates a name.
    pub fn new(name: impl Into<String>) -> Self {
        ObjectName(name.into())
    }

    /// The name as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectName {
    fn from(s: &str) -> Self {
        ObjectName::new(s)
    }
}

/// A monotonically increasing version number, starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Version(u32);

impl Version {
    /// The first version of any object.
    pub const FIRST: Version = Version(1);

    /// The raw version number.
    pub const fn number(self) -> u32 {
        self.0
    }

    /// The next version.
    #[must_use]
    pub const fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One version's placement record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionEntry {
    /// The stored object backing this version.
    pub object: ObjectId,
    /// Which node it was placed on.
    pub node: NodeId,
    /// The node incarnation the object was placed under. A node that
    /// fails and rejoins comes back one incarnation higher, so entries
    /// published before the failure can never resolve against the reborn
    /// (empty) node — even if purging was skipped or raced.
    pub incarnation: u64,
}

/// A name → version-history directory.
///
/// The simulation keeps one logically-centralized directory for
/// convenience; the real system distributes it, but nothing in the paper's
/// evaluation depends on directory placement.
///
/// Internally names are interned into dense slots: a hash lookup resolves
/// a name to a `u32` slot once, and every history lives in a slot-indexed
/// vector — the same arena discipline the storage engine uses for
/// `ObjectId`s. Purging a failed node edits each history in place (no map
/// nodes are deallocated and nothing is cloned per sweep); a slot whose
/// history empties stays interned, and the name simply reads as absent
/// until it is published again, which restarts at [`Version::FIRST`] —
/// observationally identical to removing and re-inserting a map entry.
///
/// # Examples
///
/// ```
/// use besteffs::{Directory, NodeId, ObjectName, Version};
/// use temporal_importance::ObjectId;
///
/// let mut dir = Directory::new();
/// let name = ObjectName::from("lecture-1");
/// let v1 = dir.publish(name.clone(), ObjectId::new(10), NodeId::new(3));
/// assert_eq!(v1, Version::FIRST);
/// let v2 = dir.publish(name.clone(), ObjectId::new(11), NodeId::new(4));
/// assert_eq!(v2, Version::FIRST.next());
/// assert_eq!(dir.latest(&name).unwrap().object, ObjectId::new(11));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Interned name → slot. The map owns a clone of the name; `names`
    /// keeps the iteration copy.
    by_name: FxHashMap<ObjectName, u32>,
    /// Slot → name.
    names: Vec<ObjectName>,
    /// Slot → version history, edited in place by purges.
    histories: Vec<Vec<VersionEntry>>,
    /// Slots whose history is non-empty (the directory's visible size).
    live: usize,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Publishes a new version of `name` under node incarnation 0,
    /// returning its version number. Churn-aware callers should use
    /// [`publish_on`] with the node's current incarnation instead.
    ///
    /// [`publish_on`]: Directory::publish_on
    pub fn publish(&mut self, name: ObjectName, object: ObjectId, node: NodeId) -> Version {
        self.publish_on(name, object, node, 0)
    }

    /// Publishes a new version of `name` placed on `node` while it was
    /// running `incarnation`, returning the version number.
    pub fn publish_on(
        &mut self,
        name: ObjectName,
        object: ObjectId,
        node: NodeId,
        incarnation: u64,
    ) -> Version {
        let slot = match self.by_name.get(&name) {
            Some(&slot) => slot as usize,
            None => {
                let slot = self.names.len();
                self.by_name.insert(name.clone(), slot as u32);
                self.names.push(name);
                self.histories.push(Vec::new());
                slot
            }
        };
        let history = &mut self.histories[slot];
        if history.is_empty() {
            self.live += 1;
        }
        history.push(VersionEntry {
            object,
            node,
            incarnation,
        });
        Version(history.len() as u32)
    }

    /// The full version history of `name`, oldest first (empty if the
    /// name is unknown or fully purged). Borrowed straight from the
    /// slot's storage — reading a history allocates nothing.
    pub fn versions(&self, name: &ObjectName) -> &[VersionEntry] {
        self.by_name
            .get(name)
            .map(|&slot| self.histories[slot as usize].as_slice())
            .unwrap_or(&[])
    }

    /// The latest version's entry, if the name exists.
    pub fn latest(&self, name: &ObjectName) -> Option<VersionEntry> {
        self.versions(name).last().copied()
    }

    /// Number of versions recorded for `name` (zero if unknown).
    pub fn version_count(&self, name: &ObjectName) -> usize {
        self.versions(name).len()
    }

    /// Iterates over all names in order.
    pub fn names(&self) -> impl Iterator<Item = &ObjectName> {
        let mut live: Vec<&ObjectName> = self
            .names
            .iter()
            .zip(&self.histories)
            .filter(|(_, history)| !history.is_empty())
            .map(|(name, _)| name)
            .collect();
        live.sort_unstable();
        live.into_iter()
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops directory entries that point at a failed node (the objects
    /// are gone; Besteffs does not replicate). Returns how many version
    /// entries were dropped.
    ///
    /// Runs entirely in place over the slot arrays: surviving entries
    /// shift down within their history's existing buffer, so a purge
    /// sweep performs no allocation regardless of how many entries drop.
    pub fn purge_node(&mut self, node: NodeId) -> usize {
        let mut dropped = 0;
        for history in &mut self.histories {
            if history.is_empty() {
                continue;
            }
            let before = history.len();
            history.retain(|e| e.node != node);
            dropped += before - history.len();
            if history.is_empty() {
                self.live -= 1;
            }
        }
        dropped
    }
}

/// Serializes as `{"entries": {name: [versions...]}}` with names in
/// sorted order and fully-purged names omitted — byte-identical to the
/// `BTreeMap<ObjectName, Vec<VersionEntry>>` layout this type had before
/// names were interned, so stored snapshots keep working.
impl Serialize for Directory {
    fn to_content(&self) -> Content {
        let mut entries: Vec<(&ObjectName, &Vec<VersionEntry>)> = self
            .names
            .iter()
            .zip(&self.histories)
            .filter(|(_, history)| !history.is_empty())
            .collect();
        entries.sort_unstable_by_key(|&(name, _)| name);
        let map = entries
            .into_iter()
            .map(|(name, history)| (name.0.clone(), history.to_content()))
            .collect();
        Content::Map(vec![("entries".to_string(), Content::Map(map))])
    }
}

impl Deserialize for Directory {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let raw: BTreeMap<ObjectName, Vec<VersionEntry>> = match content {
            Content::Map(fields) => match fields.iter().find(|(key, _)| key == "entries") {
                Some((_, entries)) => Deserialize::deserialize(entries)?,
                None => return Err(Error::custom("missing field `entries`")),
            },
            other => {
                return Err(Error::custom(format!(
                    "invalid type: expected object, got {}",
                    other.kind()
                )))
            }
        };
        let mut dir = Directory::new();
        for (name, history) in raw {
            let slot = dir.names.len();
            dir.by_name.insert(name.clone(), slot as u32);
            dir.names.push(name);
            if !history.is_empty() {
                dir.live += 1;
            }
            dir.histories.push(history);
        }
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotonic_per_name() {
        let mut dir = Directory::new();
        let name = ObjectName::from("a");
        assert_eq!(
            dir.publish(name.clone(), ObjectId::new(1), NodeId::new(0)),
            Version(1)
        );
        assert_eq!(
            dir.publish(name.clone(), ObjectId::new(2), NodeId::new(1)),
            Version(2)
        );
        assert_eq!(dir.version_count(&name), 2);
        assert_eq!(dir.versions(&name)[0].object, ObjectId::new(1));
        assert_eq!(dir.latest(&name).unwrap().object, ObjectId::new(2));
        assert_eq!(dir.versions(&name).get(2), None);
    }

    #[test]
    fn unknown_names() {
        let dir = Directory::new();
        let name = ObjectName::from("missing");
        assert_eq!(dir.latest(&name), None);
        assert_eq!(dir.version_count(&name), 0);
        assert!(dir.is_empty());
        assert_eq!(dir.len(), 0);
    }

    #[test]
    fn purge_node_drops_lost_versions() {
        let mut dir = Directory::new();
        let a = ObjectName::from("a");
        let b = ObjectName::from("b");
        dir.publish(a.clone(), ObjectId::new(1), NodeId::new(0));
        dir.publish(a.clone(), ObjectId::new(2), NodeId::new(1));
        dir.publish(b.clone(), ObjectId::new(3), NodeId::new(0));
        let dropped = dir.purge_node(NodeId::new(0));
        assert_eq!(dropped, 2);
        // "a" falls back to the surviving version; "b" disappears.
        assert_eq!(dir.latest(&a).unwrap().object, ObjectId::new(2));
        assert_eq!(dir.latest(&b), None);
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.names().count(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ObjectName::from("x").to_string(), "x");
        assert_eq!(Version::FIRST.to_string(), "v1");
        assert_eq!(Version::FIRST.next().number(), 2);
    }

    #[test]
    fn republishing_a_fully_purged_name_restarts_versions() {
        let mut dir = Directory::new();
        let name = ObjectName::from("phoenix");
        dir.publish(name.clone(), ObjectId::new(1), NodeId::new(0));
        dir.publish(name.clone(), ObjectId::new(2), NodeId::new(0));
        assert_eq!(dir.purge_node(NodeId::new(0)), 2);
        assert!(dir.is_empty());
        assert_eq!(dir.latest(&name), None);
        assert!(dir.versions(&name).is_empty());
        // The slot is reused, but the name behaves like a fresh insert.
        assert_eq!(
            dir.publish(name.clone(), ObjectId::new(3), NodeId::new(1)),
            Version::FIRST
        );
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.latest(&name).unwrap().object, ObjectId::new(3));
    }

    #[test]
    fn versions_borrows_the_full_history() {
        let mut dir = Directory::new();
        let name = ObjectName::from("a");
        dir.publish(name.clone(), ObjectId::new(1), NodeId::new(0));
        dir.publish(name.clone(), ObjectId::new(2), NodeId::new(1));
        let history = dir.versions(&name);
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].object, ObjectId::new(1));
        assert_eq!(history[1].object, ObjectId::new(2));
        assert!(dir.versions(&ObjectName::from("missing")).is_empty());
    }

    #[test]
    fn names_iterate_sorted_regardless_of_publish_order() {
        let mut dir = Directory::new();
        for name in ["zeta", "alpha", "mid"] {
            dir.publish(ObjectName::from(name), ObjectId::new(1), NodeId::new(0));
        }
        let seen: Vec<&str> = dir.names().map(ObjectName::as_str).collect();
        assert_eq!(seen, ["alpha", "mid", "zeta"]);
    }

    /// The interned layout must serialize exactly like the
    /// `BTreeMap<ObjectName, Vec<VersionEntry>>` it replaced: sorted
    /// names, purged names omitted, and `{"entries": ...}` framing.
    #[test]
    fn serde_format_matches_the_old_map_layout() {
        let mut dir = Directory::new();
        dir.publish(ObjectName::from("b"), ObjectId::new(2), NodeId::new(1));
        dir.publish(ObjectName::from("a"), ObjectId::new(1), NodeId::new(0));
        dir.publish(ObjectName::from("gone"), ObjectId::new(3), NodeId::new(2));
        dir.purge_node(NodeId::new(2));

        let json = serde_json::to_string(&dir).expect("serialize directory");
        let a = json.find("\"a\"").expect("a serialized");
        let b = json.find("\"b\"").expect("b serialized");
        assert!(a < b, "names must serialize sorted: {json}");
        assert!(
            !json.contains("gone"),
            "purged names must be omitted: {json}"
        );
        assert!(
            json.starts_with("{\"entries\":{"),
            "framing changed: {json}"
        );

        let back: Directory = serde_json::from_str(&json).expect("deserialize directory");
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.latest(&ObjectName::from("a")).unwrap().object,
            ObjectId::new(1)
        );
        assert_eq!(
            back.latest(&ObjectName::from("b")).unwrap().node,
            NodeId::new(1)
        );
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
