//! The cross-restart strategy store (`LRMS` format).
//!
//! The engine's original disk layer was a bare spill of `(B, L)` factors.
//! The store promotes it into a first-class artifact: every file carries a
//! versioned header of public metadata — workload fingerprint, mechanism
//! kind, noise flavor, options digest, shapes, rank, structural class,
//! coarse column profile, and the iteration count of the compile that
//! produced it. Exact hits load and revalidate the factors; a loaded
//! decomposition then seeds warm starts like a freshly compiled one.
//!
//! Trust model: nothing loaded from disk is served without
//! revalidation. Shapes must fit the live workload, the sensitivity
//! constraint `Δ(L) ≤ 1` is re-checked, and the residual is always
//! recomputed against the live workload — a stale or
//! tampered file becomes a visible error or a huge residual, never a
//! silent wrong answer. Version-mismatched files are rejected with a
//! typed error and simply recompiled over.
//!
//! The store is bounded: beyond `capacity` files, the least recently
//! written entries are evicted at save time. Write order lives in memory,
//! seeded by one directory listing (oldest mtime first) when the store
//! opens, so a save never rescans the directory. The index assumes one
//! live writer per directory: files another process writes meanwhile are
//! seen at the next open.

use crate::decomposition::WorkloadDecomposition;
use crate::engine::registry::{MechanismKind, NoiseFlavor};
use lrm_dp::{sensitivity, SensitivityNorm};
use lrm_linalg::Matrix;
use lrm_workload::Workload;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"LRMS";
/// v1: pre-flavor files (everything is pure ε-DP / Laplace / L1).
/// v2: one noise-flavor byte after the mechanism kind tag.
///
/// Both versions load; v1 entries are read as [`NoiseFlavor::PureDp`] —
/// exactly what every v1 compile was — so a store directory written by an
/// earlier release keeps serving pure requests and is never offered to an
/// approximate-DP request.
const VERSION: u32 = 2;
const MIN_VERSION: u32 = 1;

/// Why a store file could not be used. Internal: the engine maps every
/// variant to "treat as miss and recompile", but tests distinguish them.
#[derive(Debug)]
pub(crate) enum StoreError {
    /// I/O or truncation.
    Io(std::io::Error),
    /// Not an `LRMS` file at all.
    BadMagic,
    /// An `LRMS` file from an incompatible format revision.
    VersionMismatch { found: u32 },
    /// Header or factors are inconsistent with the live workload.
    Invalid(String),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not an LRMS strategy file (bad magic)"),
            StoreError::VersionMismatch { found } => {
                write!(
                    f,
                    "unsupported LRMS version {found} (expected {MIN_VERSION}..={VERSION})"
                )
            }
            StoreError::Invalid(why) => write!(f, "invalid LRMS entry: {why}"),
        }
    }
}

/// The header of one stored strategy: the public coordinates of the
/// factors that follow it.
#[derive(Debug, Clone)]
pub(crate) struct StoredHeader {
    pub fingerprint: u64,
    pub digest: u64,
    pub kind: MechanismKind,
    /// Noise model the stored strategy was calibrated for. v1 files have
    /// no flavor byte and always read back as [`NoiseFlavor::PureDp`].
    pub flavor: NoiseFlavor,
    pub class: String,
    pub m: usize,
    pub n: usize,
    pub rank: usize,
    /// Outer ALM iterations of the compile that produced this entry.
    pub cold_iterations: usize,
    pub profile: Vec<f64>,
}

/// A bounded directory of `LRMS` files addressed by
/// `(fingerprint, kind, options digest)`.
#[derive(Debug)]
pub(crate) struct StrategyStore {
    dir: PathBuf,
    capacity: usize,
    /// The store's files, least recently written first.
    written: Mutex<VecDeque<PathBuf>>,
}

impl StrategyStore {
    /// Opens the store over `dir`, indexing the `.lrms` files already
    /// there by mtime (a missing directory is an empty store).
    pub fn open(dir: PathBuf, capacity: usize) -> Self {
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("lrms") {
                    return None;
                }
                let mtime = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                Some((mtime, path))
            })
            .collect();
        files.sort();
        Self {
            dir,
            capacity,
            written: Mutex::new(files.into_iter().map(|(_, path)| path).collect()),
        }
    }

    pub fn path_for(&self, fingerprint: u64, kind: MechanismKind, digest: u64) -> PathBuf {
        self.dir.join(format!(
            "{fingerprint:016x}-{:02x}-{digest:016x}.lrms",
            kind.store_tag()
        ))
    }

    /// Loads and revalidates the factors behind `path` for serving:
    /// header must match the live workload's shape **and the requested
    /// noise flavor**, the flavor's own sensitivity constraint (`Δ₁(L) ≤ 1`
    /// pure, `Δ₂(L) ≤ 1` approximate) must hold, and the residual is
    /// recomputed fresh. The flavor check is what makes cross-calibration
    /// serving impossible: a pre-PR-8 (v1) file is always pure and is a
    /// typed error for an approximate request.
    pub fn load_exact(
        &self,
        path: &Path,
        workload: &Workload,
        flavor: NoiseFlavor,
    ) -> Result<(WorkloadDecomposition, StoredHeader), StoreError> {
        let file = File::open(path)?;
        let mut input = BufReader::new(file);
        let header = read_header(&mut input)?;
        if header.flavor != flavor {
            return Err(StoreError::Invalid(format!(
                "stored strategy is {}-calibrated but the request is {}: \
                 calibrations never transfer across flavors",
                header.flavor, flavor
            )));
        }
        let b = Matrix::read_binary(&mut input)
            .map_err(|e| StoreError::Invalid(format!("bad B block: {e}")))?;
        let l = Matrix::read_binary(&mut input)
            .map_err(|e| StoreError::Invalid(format!("bad L block: {e}")))?;
        let (m, n) = (workload.num_queries(), workload.domain_size());
        if b.rows() != m || l.cols() != n || b.cols() != l.rows() || l.rows() != header.rank {
            return Err(StoreError::Invalid(format!(
                "stored factors B {}x{}, L {}x{} do not fit a {m}x{n} workload",
                b.rows(),
                b.cols(),
                l.rows(),
                l.cols()
            )));
        }
        let norm = flavor.norm();
        let delta = match norm {
            SensitivityNorm::L1 => l.max_col_abs_sum(),
            SensitivityNorm::L2 => sensitivity::l2_sensitivity(&l),
        };
        if delta > 1.0 + 1e-6 {
            return Err(StoreError::Invalid(format!(
                "stored L violates the {} sensitivity constraint: Δ = {delta}",
                norm.token()
            )));
        }
        let residual = crate::decomposition::residual_of(workload.op().as_ref(), &b, &l);
        Ok((
            WorkloadDecomposition::from_parts_with_norm(b, l, residual, norm),
            header,
        ))
    }

    /// Best-effort save. Returns the number of old entries evicted to stay
    /// under capacity; a full disk or read-only directory must not fail
    /// the compile that produced the factors.
    ///
    /// The data is synced before the save returns. A file costs one small
    /// write-back either way; paid here, it is spread over the compiles
    /// that produce the files, instead of piling up as dirty pages that the
    /// kernel writes back in a burst later, stalling every `fsync` on the
    /// filesystem meanwhile (the ledger journals' among them).
    pub fn save(&self, header: &StoredHeader, decomposition: &WorkloadDecomposition) -> u64 {
        let path = self.path_for(header.fingerprint, header.kind, header.digest);
        let _ = std::fs::create_dir_all(&self.dir);
        let write = (|| -> std::io::Result<()> {
            let file = File::create(&path)?;
            let mut out = BufWriter::new(file);
            write_header(&mut out, header)?;
            decomposition.b().write_binary(&mut out)?;
            decomposition.l().write_binary(&mut out)?;
            out.into_inner().map_err(|e| e.into_error())?.sync_data()
        })();
        let mut written = self.written.lock().expect("store index lock");
        written.retain(|p| *p != path);
        if write.is_err() {
            let _ = std::fs::remove_file(&path);
            return 0;
        }
        written.push_back(path);
        // Oldest first; the file just written is at the back and, with
        // `capacity ≥ 1`, always survives.
        let mut evicted = 0;
        while written.len() > self.capacity.max(1) {
            let oldest = written.pop_front().expect("longer than capacity");
            if std::fs::remove_file(oldest).is_ok() {
                evicted += 1;
            }
        }
        evicted
    }
}

fn write_header(out: &mut impl Write, h: &StoredHeader) -> std::io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&h.fingerprint.to_le_bytes())?;
    out.write_all(&h.digest.to_le_bytes())?;
    out.write_all(&[h.kind.store_tag()])?;
    out.write_all(&[h.flavor.store_tag()])?;
    let class = h.class.as_bytes();
    out.write_all(&[u8::try_from(class.len()).unwrap_or(u8::MAX)])?;
    out.write_all(&class[..class.len().min(u8::MAX as usize)])?;
    for dim in [h.m, h.n, h.rank, h.cold_iterations] {
        out.write_all(&(dim as u64).to_le_bytes())?;
    }
    out.write_all(&(h.profile.len() as u16).to_le_bytes())?;
    for &p in &h.profile {
        out.write_all(&p.to_le_bytes())?;
    }
    Ok(())
}

fn read_header(input: &mut impl Read) -> Result<StoredHeader, StoreError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut word4 = [0u8; 4];
    input.read_exact(&mut word4)?;
    let version = u32::from_le_bytes(word4);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(StoreError::VersionMismatch { found: version });
    }
    let mut word8 = [0u8; 8];
    input.read_exact(&mut word8)?;
    let fingerprint = u64::from_le_bytes(word8);
    input.read_exact(&mut word8)?;
    let digest = u64::from_le_bytes(word8);
    let mut byte = [0u8; 1];
    input.read_exact(&mut byte)?;
    let kind = MechanismKind::from_store_tag(byte[0])
        .ok_or_else(|| StoreError::Invalid(format!("unknown mechanism tag {}", byte[0])))?;
    let flavor = if version >= 2 {
        input.read_exact(&mut byte)?;
        NoiseFlavor::from_store_tag(byte[0])
            .ok_or_else(|| StoreError::Invalid(format!("unknown flavor tag {}", byte[0])))?
    } else {
        // Every v1 compile was Laplace-calibrated.
        NoiseFlavor::PureDp
    };
    input.read_exact(&mut byte)?;
    let mut class_bytes = vec![0u8; byte[0] as usize];
    input.read_exact(&mut class_bytes)?;
    let class = String::from_utf8(class_bytes)
        .map_err(|_| StoreError::Invalid("class tag is not UTF-8".into()))?;
    let mut dims = [0usize; 4];
    for dim in &mut dims {
        input.read_exact(&mut word8)?;
        *dim = u64::from_le_bytes(word8) as usize;
    }
    let [m, n, rank, cold_iterations] = dims;
    let mut word2 = [0u8; 2];
    input.read_exact(&mut word2)?;
    let profile_len = u16::from_le_bytes(word2) as usize;
    if profile_len > 4096 {
        return Err(StoreError::Invalid(format!(
            "implausible profile length {profile_len}"
        )));
    }
    let mut profile = Vec::with_capacity(profile_len);
    for _ in 0..profile_len {
        input.read_exact(&mut word8)?;
        profile.push(f64::from_le_bytes(word8));
    }
    if profile.iter().any(|p| !p.is_finite()) {
        return Err(StoreError::Invalid("profile is not finite".into()));
    }
    Ok(StoredHeader {
        fingerprint,
        digest,
        kind,
        flavor,
        class,
        m,
        n,
        rank,
        cold_iterations,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{DecompositionConfig, WorkloadDecomposition};
    use lrm_workload::generators::{WRange, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lrm_store_{name}_{}", std::process::id()))
    }

    fn sample() -> (Workload, WorkloadDecomposition, StoredHeader) {
        let w = WRange
            .generate(6, 12, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let d = WorkloadDecomposition::compute(&w, &DecompositionConfig::default()).unwrap();
        let header = StoredHeader {
            fingerprint: w.fingerprint().as_u64(),
            digest: 0xABCD,
            kind: MechanismKind::Lrm,
            flavor: NoiseFlavor::PureDp,
            class: "dense".into(),
            m: 6,
            n: 12,
            rank: d.rank(),
            cold_iterations: d.stats().outer_iterations,
            profile: vec![0.25, 0.25, 0.25, 0.25],
        };
        (w, d, header)
    }

    /// Byte-for-byte writer for the v1 (pre-flavor) header layout, kept
    /// only so the migration test can fabricate a PR-7-era store file.
    fn write_v1_file(path: &Path, h: &StoredHeader, d: &WorkloadDecomposition) {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&h.fingerprint.to_le_bytes());
        out.extend_from_slice(&h.digest.to_le_bytes());
        out.push(h.kind.store_tag());
        let class = h.class.as_bytes();
        out.push(u8::try_from(class.len()).unwrap());
        out.extend_from_slice(class);
        for dim in [h.m, h.n, h.rank, h.cold_iterations] {
            out.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        out.extend_from_slice(&(h.profile.len() as u16).to_le_bytes());
        for &p in &h.profile {
            out.extend_from_slice(&p.to_le_bytes());
        }
        d.b().write_binary(&mut out).unwrap();
        d.l().write_binary(&mut out).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn header_round_trips_through_load_exact() {
        let dir = tmp("round_trip");
        let store = StrategyStore::open(dir.clone(), 16);
        let (w, d, header) = sample();
        assert_eq!(store.save(&header, &d), 0);

        let path = store.path_for(header.fingerprint, header.kind, header.digest);
        let (_, h) = store.load_exact(&path, &w, NoiseFlavor::PureDp).unwrap();
        assert_eq!(h.fingerprint, header.fingerprint);
        assert_eq!(h.digest, header.digest);
        assert_eq!(h.kind, MechanismKind::Lrm);
        assert_eq!(h.flavor, NoiseFlavor::PureDp);
        assert_eq!(h.class, "dense");
        assert_eq!((h.m, h.n, h.rank), (header.m, header.n, header.rank));
        assert_eq!(h.cold_iterations, header.cold_iterations);
        assert_eq!(h.profile, header.profile);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The LRMS v2 header layout, byte for byte: stores written by other
    /// releases must keep loading.
    #[test]
    fn write_header_matches_the_v2_golden_bytes() {
        let header = StoredHeader {
            fingerprint: 0x0102_0304_0506_0708,
            digest: 0xA1A2_A3A4_A5A6_A7A8,
            kind: MechanismKind::LrmRelaxed,
            flavor: NoiseFlavor::ApproxDp,
            class: "sparse".into(),
            m: 3,
            n: 258,
            rank: 2,
            cold_iterations: 41,
            profile: vec![0.5, -2.0],
        };
        let mut bytes = Vec::new();
        write_header(&mut bytes, &header).unwrap();
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'L', b'R', b'M', b'S',
            2, 0, 0, 0,
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
            0xA8, 0xA7, 0xA6, 0xA5, 0xA4, 0xA3, 0xA2, 0xA1,
            2, // kind: LRM-γ
            1, // flavor: approximate
            6, b's', b'p', b'a', b'r', b's', b'e',
            3, 0, 0, 0, 0, 0, 0, 0,
            2, 1, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            41, 0, 0, 0, 0, 0, 0, 0,
            2, 0,
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // 0.5
            0, 0, 0, 0, 0, 0, 0x00, 0xC0, // -2.0
        ];
        assert_eq!(bytes, golden);
        let read = read_header(&mut bytes.as_slice()).unwrap();
        assert_eq!(read.digest, header.digest);
        assert_eq!(read.profile, header.profile);
    }

    #[test]
    fn exact_load_revalidates_and_version_mismatch_is_typed() {
        let dir = tmp("reload");
        let store = StrategyStore::open(dir.clone(), 16);
        let (w, d, header) = sample();
        store.save(&header, &d);
        let path = store.path_for(header.fingerprint, header.kind, header.digest);

        let (loaded, h) = store.load_exact(&path, &w, NoiseFlavor::PureDp).unwrap();
        assert_eq!(loaded.rank(), d.rank());
        assert_eq!(h.cold_iterations, header.cold_iterations);
        assert!((loaded.stats().residual - d.stats().residual).abs() < 1e-9);

        // Bump the on-disk version: the rejection is typed.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        match store.load_exact(&path, &w, NoiseFlavor::PureDp) {
            Err(StoreError::VersionMismatch { found: 99 }) => {}
            other => panic!("expected a version mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn v1_store_files_migrate_as_pure_and_never_serve_approx() {
        let dir = tmp("migrate_v1");
        let store = StrategyStore::open(dir.clone(), 16);
        let (w, d, header) = sample();
        let path = store.path_for(header.fingerprint, header.kind, header.digest);
        write_v1_file(&path, &header, &d);

        // The v1 entry reads back as a pure strategy and keeps serving
        // pure requests…
        let (loaded, h) = store.load_exact(&path, &w, NoiseFlavor::PureDp).unwrap();
        assert_eq!(h.flavor, NoiseFlavor::PureDp);
        assert_eq!(h.fingerprint, header.fingerprint);
        assert_eq!(loaded.norm(), SensitivityNorm::L1);

        // …and is a typed rejection for an approximate request.
        match store.load_exact(&path, &w, NoiseFlavor::ApproxDp) {
            Err(StoreError::Invalid(why)) => {
                assert!(why.contains("calibrations never transfer"), "{why}")
            }
            other => panic!("expected a flavor rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn approx_entries_round_trip_with_their_flavor() {
        let dir = tmp("approx_rt");
        let store = StrategyStore::open(dir.clone(), 16);
        let w = WRange
            .generate(6, 12, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let d = WorkloadDecomposition::compute_flavored(
            &w,
            &DecompositionConfig::default(),
            SensitivityNorm::L2,
        )
        .unwrap();
        let header = StoredHeader {
            fingerprint: w.fingerprint().as_u64(),
            digest: 0xBEEF,
            kind: MechanismKind::Lrm,
            flavor: NoiseFlavor::ApproxDp,
            class: "dense".into(),
            m: 6,
            n: 12,
            rank: d.rank(),
            cold_iterations: d.stats().outer_iterations,
            profile: vec![0.25; 4],
        };
        store.save(&header, &d);
        let path = store.path_for(header.fingerprint, header.kind, header.digest);

        let (loaded, h) = store.load_exact(&path, &w, NoiseFlavor::ApproxDp).unwrap();
        assert_eq!(h.flavor, NoiseFlavor::ApproxDp);
        assert_eq!(loaded.norm(), SensitivityNorm::L2);
        assert!(loaded.sensitivity() <= 1.0 + 1e-6);

        // And the mirror-image rejection: an L2 strategy never serves pure.
        assert!(store.load_exact(&path, &w, NoiseFlavor::PureDp).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn eviction_keeps_the_newest_entries() {
        let dir = tmp("evict");
        let store = StrategyStore::open(dir.clone(), 2);
        let (_, d, header) = sample();
        let mut evicted_total = 0;
        for i in 0..4u64 {
            let h = StoredHeader {
                fingerprint: i,
                ..header.clone()
            };
            evicted_total += store.save(&h, &d);
        }
        assert_eq!(evicted_total, 2);
        let left: Vec<u64> = (0..4u64)
            .filter(|&i| store.path_for(i, header.kind, header.digest).exists())
            .collect();
        assert_eq!(left.len(), 2);
        assert!(left.contains(&3), "newest entry must survive, got {left:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A reopened store orders the files it finds by mtime, not by name
    /// or listing order: written as 0..4 with mtimes running backwards,
    /// the directory's oldest files are 3 and then 2, and those go first.
    #[test]
    fn reopened_store_evicts_the_directorys_oldest_files_first() {
        let dir = tmp("evict_reopen");
        let (_, d, header) = sample();
        let with_fingerprint = |fingerprint| StoredHeader {
            fingerprint,
            ..header.clone()
        };
        let first = StrategyStore::open(dir.clone(), 16);
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        for i in 0..4u64 {
            assert_eq!(first.save(&with_fingerprint(i), &d), 0);
            let path = first.path_for(i, header.kind, header.digest);
            let mtime = epoch + std::time::Duration::from_secs(1_000_000 - i);
            File::options()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_modified(mtime))
                .unwrap();
        }
        drop(first);

        let reopened = StrategyStore::open(dir.clone(), 3);
        assert_eq!(reopened.save(&with_fingerprint(9), &d), 2);
        let left: Vec<u64> = [0, 1, 2, 3, 9]
            .into_iter()
            .filter(|&i| reopened.path_for(i, header.kind, header.digest).exists())
            .collect();
        assert_eq!(left, vec![0, 1, 9]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
