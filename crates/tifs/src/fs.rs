//! The file system proper.

use std::collections::{BTreeMap, HashMap};

use sim_core::{ByteSize, SimTime};
use temporal_importance::protocol::{AnnotateMode, StoreApi};
use temporal_importance::{
    DensitySnapshot, Error, EvictionRecord, Importance, ImportanceCurve, ObjectId, ObjectIdGen,
    StorageUnit,
};

use crate::error::FsError;
use crate::path::{normalize, split_parent};

/// A directory tree node.
#[derive(Debug)]
enum Node {
    Dir(BTreeMap<String, Node>),
    File(ObjectId),
}

/// What kind of entry a directory listing row is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A subdirectory.
    Directory,
    /// A regular (annotated) file.
    File,
}

/// One row of a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within its directory.
    pub name: String,
    /// Directory or file.
    pub kind: EntryKind,
}

/// Metadata for a file, as of a given instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStat {
    /// Backing object id.
    pub object: ObjectId,
    /// File size.
    pub size: ByteSize,
    /// Current importance under the active annotation.
    pub importance: Importance,
    /// When the file was created.
    pub created: SimTime,
    /// When the annotation expires (`None` = never). After this instant
    /// the file may vanish at any time.
    pub expires: Option<SimTime>,
}

/// A user-level temporal-importance file system over one storage unit.
///
/// Files are write-once and carry an [`ImportanceCurve`]; directories are
/// pure metadata and consume no storage. When the engine preempts a
/// file's backing object, the file disappears from the namespace — the
/// §3 contract that the system "makes no guarantees on object
/// availability" after expiry, generalized to preemption.
#[derive(Debug)]
pub struct TiFs {
    unit: StorageUnit,
    ids: ObjectIdGen,
    root: BTreeMap<String, Node>,
    contents: HashMap<ObjectId, Vec<u8>>,
    locations: HashMap<ObjectId, Vec<String>>,
}

impl TiFs {
    /// Creates an empty file system backed by `capacity` of storage.
    pub fn new(capacity: ByteSize) -> Self {
        TiFs {
            unit: StorageUnit::new(capacity),
            ids: ObjectIdGen::new(),
            root: BTreeMap::new(),
            contents: HashMap::new(),
            locations: HashMap::new(),
        }
    }

    /// Bytes used by file contents.
    pub fn used(&self) -> ByteSize {
        self.unit.used()
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.unit.capacity()
    }

    /// The storage importance density at `now` — the feedback signal for
    /// choosing annotations (§5.1.2).
    pub fn density(&mut self, now: SimTime) -> f64 {
        self.unit
            .density_info(now)
            .expect("a unit answers a density read")
            .density
    }

    /// The storage unit's [`DensitySnapshot`] at `now`, what an
    /// [`Advisor`](temporal_importance::Advisor) reads.
    pub fn density_snapshot(&mut self, now: SimTime) -> DensitySnapshot {
        self.unit.density_snapshot(now)
    }

    /// Creates a directory, requiring the parent to exist.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`] for a bad
    /// parent; [`FsError::AlreadyExists`] if the name is taken.
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        let (parent, name) = split_parent(path, normalize(path)?)?;
        let dir = resolve_dir_mut(&mut self.root, &parent, path)?;
        if dir.contains_key(&name) {
            return Err(FsError::AlreadyExists {
                path: path.to_string(),
            });
        }
        dir.insert(name, Node::Dir(BTreeMap::new()));
        Ok(())
    }

    /// Creates a directory and any missing ancestors.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if a path component is a file.
    pub fn mkdir_all(&mut self, path: &str, _now: SimTime) -> Result<(), FsError> {
        let segments = normalize(path)?;
        let mut dir = &mut self.root;
        for (depth, segment) in segments.iter().enumerate() {
            let entry = dir
                .entry(segment.clone())
                .or_insert_with(|| Node::Dir(BTreeMap::new()));
            match entry {
                Node::Dir(children) => dir = children,
                Node::File(_) => {
                    return Err(FsError::NotADirectory {
                        path: format!("/{}", segments[..=depth].join("/")),
                    })
                }
            }
        }
        Ok(())
    }

    /// Creates a write-once file with the given annotation, possibly
    /// preempting less important files to make room.
    ///
    /// Returns the backing object id.
    ///
    /// # Errors
    ///
    /// * [`FsError::AlreadyExists`] — files are write-once; use
    ///   [`remove`](TiFs::remove) first to replace.
    /// * [`FsError::Storage`] — the engine refused the write (storage full
    ///   for this importance level, zero-length data, or data larger than
    ///   the whole file system).
    pub fn create(
        &mut self,
        path: &str,
        data: Vec<u8>,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<ObjectId, FsError> {
        let segments = normalize(path)?;
        let (parent, name) = split_parent(path, segments.clone())?;
        {
            let dir = resolve_dir_mut(&mut self.root, &parent, path)?;
            if dir.contains_key(&name) {
                return Err(FsError::AlreadyExists {
                    path: path.to_string(),
                });
            }
        }

        let id = self.ids.next_id();
        let size = ByteSize::from_bytes(data.len() as u64);
        let outcome = self.unit.put(id, size, curve, now).map_err(refused)?;
        for victim in &outcome.evicted {
            self.prune_object(victim);
        }

        let dir =
            resolve_dir_mut(&mut self.root, &parent, path).expect("parent verified before store");
        dir.insert(name, Node::File(id));
        self.contents.insert(id, data);
        self.locations.insert(id, segments);
        Ok(id)
    }

    /// Reads a file's contents.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the path does not exist — including when
    /// the storage has reclaimed the file since it was written.
    pub fn read(&mut self, path: &str, _now: SimTime) -> Result<&[u8], FsError> {
        let id = self.resolve_live_file(path)?;
        Ok(self
            .contents
            .get(&id)
            .expect("live file has contents")
            .as_slice())
    }

    /// A file's metadata at `now`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::IsADirectory`].
    pub fn stat(&mut self, path: &str, now: SimTime) -> Result<FileStat, FsError> {
        let id = self.resolve_live_file(path)?;
        let object = self.unit.get(id).expect("live file is resident");
        Ok(FileStat {
            object: id,
            size: object.size(),
            importance: object.current_importance(now),
            created: object.arrival(),
            expires: object.curve().expiry().map(|e| object.annotated_at() + e),
        })
    }

    /// Lists a directory, pruning entries whose backing objects have been
    /// reclaimed since the last call.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`].
    pub fn list(&mut self, path: &str, _now: SimTime) -> Result<Vec<DirEntry>, FsError> {
        let segments = normalize(path)?;
        // Prune dead children first.
        let dead: Vec<ObjectId> = {
            let dir = resolve_dir_mut(&mut self.root, &segments, path)?;
            dir.values()
                .filter_map(|node| match node {
                    Node::File(id) if !self.unit.contains(*id) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        for id in dead {
            self.prune_by_id(id);
        }
        let dir = resolve_dir_mut(&mut self.root, &segments, path)?;
        Ok(dir
            .iter()
            .map(|(name, node)| DirEntry {
                name: name.clone(),
                kind: match node {
                    Node::Dir(_) => EntryKind::Directory,
                    Node::File(_) => EntryKind::File,
                },
            })
            .collect())
    }

    /// Removes a file, freeing its storage immediately.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::IsADirectory`].
    pub fn remove(&mut self, path: &str, now: SimTime) -> Result<(), FsError> {
        let id = self.resolve_live_file(path)?;
        self.unit.remove_object(id, now).map_err(refused)?;
        self.prune_by_id(id);
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] if it still has entries,
    /// [`FsError::NotADirectory`] if the path is a file.
    pub fn rmdir(&mut self, path: &str, now: SimTime) -> Result<(), FsError> {
        // Give reclaimed files a chance to disappear first.
        let _ = self.list(path, now)?;
        let (parent, name) = split_parent(path, normalize(path)?)?;
        let dir = resolve_dir_mut(&mut self.root, &parent, path)?;
        match dir.get(&name) {
            Some(Node::Dir(children)) => {
                if !children.is_empty() {
                    return Err(FsError::NotEmpty {
                        path: path.to_string(),
                    });
                }
                dir.remove(&name);
                Ok(())
            }
            Some(Node::File(_)) => Err(FsError::NotADirectory {
                path: path.to_string(),
            }),
            None => Err(FsError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    /// Raises a file's annotation (rejuvenation, §3): the new curve must
    /// not start below the file's current importance.
    ///
    /// # Errors
    ///
    /// [`FsError::Annotation`] if the curve would lower importance;
    /// [`FsError::NotFound`] / [`FsError::IsADirectory`].
    pub fn rejuvenate(
        &mut self,
        path: &str,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.resolve_live_file(path)?;
        self.unit
            .annotate(id, curve, AnnotateMode::Raise, now)
            .map_err(refused)?;
        Ok(())
    }

    /// Demotes a file's annotation unconditionally (the §6 trigger, e.g.
    /// after a successful backup).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::IsADirectory`].
    pub fn demote(
        &mut self,
        path: &str,
        curve: ImportanceCurve,
        now: SimTime,
    ) -> Result<(), FsError> {
        let id = self.resolve_live_file(path)?;
        self.unit
            .annotate(id, curve, AnnotateMode::Replace, now)
            .map_err(refused)?;
        Ok(())
    }

    /// Reclaims all expired files right now and prunes them from the
    /// namespace. Returns how many files were reclaimed.
    pub fn reclaim_expired(&mut self, now: SimTime) -> usize {
        let swept = self.unit.sweep(now).expect("a unit answers a sweep");
        for record in &swept {
            self.prune_object(record);
        }
        swept.len()
    }

    fn resolve_live_file(&mut self, path: &str) -> Result<ObjectId, FsError> {
        let (parent, name) = split_parent(path, normalize(path)?)?;
        let dir = resolve_dir_mut(&mut self.root, &parent, path)?;
        match dir.get(&name) {
            Some(Node::File(id)) => {
                let id = *id;
                if self.unit.contains(id) {
                    Ok(id)
                } else {
                    // The storage reclaimed it; make the namespace agree.
                    self.prune_by_id(id);
                    Err(FsError::NotFound {
                        path: path.to_string(),
                    })
                }
            }
            Some(Node::Dir(_)) => Err(FsError::IsADirectory {
                path: path.to_string(),
            }),
            None => Err(FsError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    fn prune_object(&mut self, record: &EvictionRecord) {
        self.prune_by_id(record.id);
    }

    fn prune_by_id(&mut self, id: ObjectId) {
        self.contents.remove(&id);
        let Some(segments) = self.locations.remove(&id) else {
            return;
        };
        let (parent, name) = match segments.split_last() {
            Some((name, parent)) => (parent, name),
            None => return,
        };
        if let Ok(dir) = resolve_dir_mut(&mut self.root, parent, "") {
            if matches!(dir.get(name), Some(Node::File(fid)) if *fid == id) {
                dir.remove(name);
            }
        }
    }
}

/// The file-system error for a refusal of the storage unit, which fails a
/// verb only with the engine's own errors.
fn refused(error: Error) -> FsError {
    match error {
        Error::Store(e) => FsError::Storage(e),
        Error::Rejuvenate(e) => FsError::Annotation(e),
        other => unreachable!("a storage unit refused with {other}"),
    }
}

fn resolve_dir_mut<'a, S: AsRef<str>>(
    root: &'a mut BTreeMap<String, Node>,
    segments: &[S],
    path: &str,
) -> Result<&'a mut BTreeMap<String, Node>, FsError> {
    let mut dir = root;
    for segment in segments {
        match dir.get_mut(segment.as_ref()) {
            Some(Node::Dir(children)) => dir = children,
            Some(Node::File(_)) => {
                return Err(FsError::NotADirectory {
                    path: path.to_string(),
                })
            }
            None => {
                return Err(FsError::NotFound {
                    path: path.to_string(),
                })
            }
        }
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;
    use temporal_importance::Importance;

    fn fixed(importance: f64, days: u64) -> ImportanceCurve {
        ImportanceCurve::Fixed {
            importance: Importance::new(importance).unwrap(),
            expiry: SimDuration::from_days(days),
        }
    }

    fn fs_mib(capacity: u64) -> TiFs {
        TiFs::new(ByteSize::from_mib(capacity))
    }

    fn kb(n: usize) -> Vec<u8> {
        vec![0xAB; n * 1024]
    }

    #[test]
    fn create_read_stat_roundtrip() {
        let mut fs = fs_mib(1);
        fs.mkdir("/docs").unwrap();
        let id = fs
            .create(
                "/docs/a.txt",
                b"hello".to_vec(),
                fixed(1.0, 30),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(fs.read("/docs/a.txt", SimTime::ZERO).unwrap(), b"hello");
        let stat = fs.stat("/docs/a.txt", SimTime::ZERO).unwrap();
        assert_eq!(stat.object, id);
        assert_eq!(stat.size, ByteSize::from_bytes(5));
        assert_eq!(stat.importance, Importance::FULL);
        assert_eq!(stat.expires, Some(SimTime::from_days(30)));
        assert_eq!(fs.used(), ByteSize::from_bytes(5));
    }

    #[test]
    fn files_are_write_once() {
        let mut fs = fs_mib(1);
        fs.create("/a", b"1".to_vec(), fixed(1.0, 30), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            fs.create("/a", b"2".to_vec(), fixed(1.0, 30), SimTime::ZERO),
            Err(FsError::AlreadyExists { .. })
        ));
        // Remove-then-create replaces.
        fs.remove("/a", SimTime::ZERO).unwrap();
        fs.create("/a", b"2".to_vec(), fixed(1.0, 30), SimTime::ZERO)
            .unwrap();
        assert_eq!(fs.read("/a", SimTime::ZERO).unwrap(), b"2");
    }

    #[test]
    fn directories_are_metadata_only() {
        let mut fs = fs_mib(1);
        fs.mkdir_all("/a/b/c/d", SimTime::ZERO).unwrap();
        assert_eq!(fs.used(), ByteSize::ZERO);
        let entries = fs.list("/a/b/c", SimTime::ZERO).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, EntryKind::Directory);
    }

    #[test]
    fn path_errors() {
        let mut fs = fs_mib(1);
        fs.create("/file", b"x".to_vec(), fixed(1.0, 30), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            fs.create("/file/child", b"x".to_vec(), fixed(1.0, 30), SimTime::ZERO),
            Err(FsError::NotADirectory { .. })
        ));
        assert!(matches!(
            fs.read("/missing", SimTime::ZERO),
            Err(FsError::NotFound { .. })
        ));
        assert!(matches!(
            fs.read("/", SimTime::ZERO),
            Err(FsError::InvalidPath { .. })
        ));
        fs.mkdir("/dir").unwrap();
        assert!(matches!(
            fs.read("/dir", SimTime::ZERO),
            Err(FsError::IsADirectory { .. })
        ));
        assert!(matches!(
            fs.mkdir("/dir"),
            Err(FsError::AlreadyExists { .. })
        ));
        assert!(matches!(
            fs.mkdir_all("/file/x", SimTime::ZERO),
            Err(FsError::NotADirectory { .. })
        ));
    }

    #[test]
    fn reclamation_removes_files_from_the_namespace() {
        let mut fs = fs_mib(1);
        fs.mkdir("/cache").unwrap();
        fs.mkdir("/docs").unwrap();
        // 600 KiB of low-importance cache data.
        fs.create("/cache/blob", kb(600), fixed(0.2, 365), SimTime::ZERO)
            .unwrap();
        // An important 700 KiB document forces reclamation of the blob.
        fs.create("/docs/thesis", kb(700), fixed(1.0, 365), SimTime::ZERO)
            .unwrap();

        assert!(matches!(
            fs.read("/cache/blob", SimTime::ZERO),
            Err(FsError::NotFound { .. })
        ));
        assert!(fs.list("/cache", SimTime::ZERO).unwrap().is_empty());
        assert_eq!(
            fs.read("/docs/thesis", SimTime::ZERO).unwrap().len(),
            700 * 1024
        );
    }

    #[test]
    fn full_for_this_importance_level() {
        let mut fs = fs_mib(1);
        fs.create("/important", kb(900), fixed(1.0, 365), SimTime::ZERO)
            .unwrap();
        // Equal importance cannot displace it.
        let err = fs
            .create("/another", kb(600), fixed(1.0, 365), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FsError::Storage(_)));
        // The namespace was not polluted by the failed create.
        assert!(matches!(
            fs.read("/another", SimTime::ZERO),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn expired_files_remain_readable_until_reclaimed() {
        let mut fs = fs_mib(1);
        fs.create("/tmp-report", kb(100), fixed(1.0, 10), SimTime::ZERO)
            .unwrap();
        let later = SimTime::from_days(30);
        // Expired but still resident: §3 "objects need not be deleted at
        // the end of t_expire".
        assert!(fs.read("/tmp-report", later).is_ok());
        assert_eq!(
            fs.stat("/tmp-report", later).unwrap().importance,
            Importance::ZERO
        );
        // An explicit reclaim sweeps it.
        assert_eq!(fs.reclaim_expired(later), 1);
        assert!(matches!(
            fs.read("/tmp-report", later),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn rejuvenate_and_demote() {
        let mut fs = fs_mib(1);
        fs.create("/video", kb(100), fixed(1.0, 10), SimTime::ZERO)
            .unwrap();
        let later = SimTime::from_days(5);
        // Raise: extend the lifetime.
        fs.rejuvenate("/video", fixed(1.0, 30), later).unwrap();
        assert_eq!(
            fs.stat("/video", SimTime::from_days(20))
                .unwrap()
                .importance,
            Importance::FULL
        );
        // Lowering via rejuvenate is refused...
        assert!(matches!(
            fs.rejuvenate("/video", fixed(0.1, 30), later),
            Err(FsError::Annotation(_))
        ));
        // ...but demote (the backup-completed trigger) succeeds.
        fs.demote("/video", fixed(0.1, 30), later).unwrap();
        assert_eq!(fs.stat("/video", later).unwrap().importance.value(), 0.1);
    }

    #[test]
    fn rmdir_only_removes_empty_directories() {
        let mut fs = fs_mib(1);
        fs.mkdir_all("/a/b", SimTime::ZERO).unwrap();
        fs.create("/a/b/f", b"x".to_vec(), fixed(1.0, 30), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            fs.rmdir("/a/b", SimTime::ZERO),
            Err(FsError::NotEmpty { .. })
        ));
        fs.remove("/a/b/f", SimTime::ZERO).unwrap();
        fs.rmdir("/a/b", SimTime::ZERO).unwrap();
        assert!(fs.list("/a", SimTime::ZERO).unwrap().is_empty());
        assert!(matches!(
            fs.rmdir("/a/b", SimTime::ZERO),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn rmdir_succeeds_after_contents_are_reclaimed() {
        let mut fs = fs_mib(1);
        fs.mkdir("/cache").unwrap();
        fs.create("/cache/junk", kb(600), fixed(0.1, 365), SimTime::ZERO)
            .unwrap();
        fs.create("/big", kb(700), fixed(1.0, 365), SimTime::ZERO)
            .unwrap();
        // junk was preempted; rmdir sees the pruned directory.
        fs.rmdir("/cache", SimTime::ZERO).unwrap();
    }

    #[test]
    fn density_reflects_file_annotations() {
        let mut fs = fs_mib(1);
        fs.create("/half", kb(512), fixed(0.5, 365), SimTime::ZERO)
            .unwrap();
        let d = fs.density(SimTime::ZERO);
        assert!((d - 0.25).abs() < 0.01, "density {d}");
        assert_eq!(fs.capacity(), ByteSize::from_mib(1));
    }

    #[test]
    fn listing_is_sorted_and_typed() {
        let mut fs = fs_mib(1);
        fs.mkdir("/z-dir").unwrap();
        fs.create("/a-file", b"x".to_vec(), fixed(1.0, 30), SimTime::ZERO)
            .unwrap();
        let entries = fs.list("/", SimTime::ZERO).unwrap();
        assert_eq!(
            entries,
            vec![
                DirEntry {
                    name: "a-file".to_string(),
                    kind: EntryKind::File
                },
                DirEntry {
                    name: "z-dir".to_string(),
                    kind: EntryKind::Directory
                },
            ]
        );
    }
}
