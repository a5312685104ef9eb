//! Durable on-disk snapshots: one binary file layout, crash-safe writes and
//! corruption-detecting reads for [`ServeSnapshot`] artifacts.
//!
//! * **One binary layout** — [`ServeSnapshot::to_path`] writes, and
//!   [`ServeSnapshot::from_path`] reads, a fixed header, a small JSON
//!   metadata block, the raw little-endian sections and **one** CRC-32 over
//!   everything before it. All integers are little-endian.
//!
//!   | offset | bytes | field |
//!   |---|---|---|
//!   | 0 | 8 | magic `MVISNAP\0` |
//!   | 8 | 4 | layout version (`u32`, currently 1) |
//!   | 12 | 8 | metadata length `m` (`u64`) |
//!   | 20 | 8 | body length `b` (`u64`): metadata plus sections |
//!   | 28 | `m` | metadata, JSON: config, dims, `t_len`, `live_t_len`, `window`, `retained_start`, `retention`, `shared_std`, each param's name and shape, and (if cached) the cache name and watermarks |
//!   | 28 + `m` | 8 × weights | every param's f64 buffer, in metadata order |
//!   | … | 8 × cells | `cache.values` (if cached) |
//!   | … | 8 × cells | `cache.imputed` |
//!   | … | ⌈cells / 8⌉ | `cache.available`, bit-packed LSB-first |
//!   | … | ⌈series × windows / 8⌉ | `cache.fresh`, bit-packed LSB-first |
//!   | 28 + `b` | 4 | CRC-32 (`u32`) of bytes `0 .. 28 + b` |
//!
//!   Section sizes are not stored: they follow from the metadata (param
//!   shapes; `cells = series × (live_t_len − retained_start)`), and the
//!   decoder requires them to fill the body exactly.
//! * **Checked before it is trusted** — the decoder verifies, in order and
//!   before any allocation sized by a field read from disk: the magic, then
//!   the version; the declared lengths against the file length (a torn or
//!   truncated file fails as [`ServeError::Corrupt`] in section `body`); the
//!   CRC (section `digest`). Only then does it parse the metadata, size
//!   every section from it, slice them, and run the same snapshot validator
//!   the JSON decoder runs (lengths, cache geometry, watermarks,
//!   finiteness). Any flipped bit or missing tail is a typed error — never a
//!   panic, never a silently-wrong model.
//! * **Atomic, crash-complete writes** — [`ServeSnapshot::to_path`] /
//!   [`crate::ImputationEngine::snapshot_to_path`] write to a temporary file
//!   in the same directory, sync it, `rename` it into place and then sync
//!   the directory, so a crash at any point leaves either the previous
//!   snapshot or the new one under the real name.
//! * **Fallback restore** — [`crate::ImputationEngine::restore_with_fallback`]
//!   walks an ordered list of snapshot paths (newest first) and serves the
//!   first one that loads clean, so one corrupt generation degrades a restart
//!   to slightly-older state instead of no state.
//!
//! The version-4 JSON of [`ServeSnapshot::to_json`] /
//! [`ServeSnapshot::from_json`] is not a file format: it stays as the
//! in-memory interchange format that tests, examples and benches hand
//! between components.

use crate::engine::ServeError;
use crate::snapshot::{f64_section, pack_bits, CacheGeometry, CacheSnapshot, ServeSnapshot};
use deepmvi::DeepMviConfig;
use mvi_autograd::params::StoreSnapshot;
use mvi_data::dataset::DimSpec;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

/// First eight bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"MVISNAP\0";
/// Version of the byte layout this build writes and reads.
const LAYOUT_VERSION: u32 = 1;
/// Magic, version, metadata length, body length.
const HEADER_LEN: usize = 28;
/// The trailing CRC-32.
const CRC_LEN: usize = 4;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`. This is the
/// digest of the snapshot file, of each packed section of the JSON
/// interchange format, and of `mvi-net` frames; exposed so external tooling
/// (and the fault-injection suite) can produce or verify digests without
/// reimplementing the table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// The metadata block: every field of a [`ServeSnapshot`] except the bulk
/// buffers, which follow it as raw sections.
#[derive(Serialize, Deserialize)]
struct Meta {
    config: DeepMviConfig,
    dims: Vec<DimSpec>,
    t_len: usize,
    live_t_len: usize,
    window: usize,
    retained_start: usize,
    retention: Option<usize>,
    shared_std: Option<f64>,
    params: Vec<ParamMeta>,
    cache: Option<CacheMeta>,
}

/// Name and shape of one weight section.
#[derive(Serialize, Deserialize)]
struct ParamMeta {
    name: String,
    shape: Vec<usize>,
}

/// The cache fields that are not bulk sections.
#[derive(Serialize, Deserialize)]
struct CacheMeta {
    name: String,
    watermark: Vec<usize>,
}

/// Encodes `snap` in the binary file layout (see the module docs).
///
/// # Errors
/// [`ServeError::Snapshot`] if the metadata fails to serialize.
pub(crate) fn encode(snap: &ServeSnapshot) -> Result<Vec<u8>, ServeError> {
    let meta = serde_json::to_string(&Meta {
        config: snap.config.clone(),
        dims: snap.dims.clone(),
        t_len: snap.t_len,
        live_t_len: snap.live_t_len,
        window: snap.window,
        retained_start: snap.retained_start,
        retention: snap.retention,
        shared_std: snap.shared_std,
        params: snap
            .params
            .params
            .iter()
            .map(|(name, t)| ParamMeta { name: name.clone(), shape: t.shape().to_vec() })
            .collect(),
        cache: snap
            .cache
            .as_ref()
            .map(|c| CacheMeta { name: c.name.clone(), watermark: c.watermark.clone() }),
    })
    .map_err(|e| ServeError::Snapshot(format!("cannot encode snapshot metadata: {e:?}")))?;
    let weights: usize = snap.params.params.iter().map(|(_, t)| t.len()).sum();
    let cells = snap.cache.as_ref().map_or(0, |c| c.values.len());
    let mut out = Vec::with_capacity(HEADER_LEN + meta.len() + 8 * (weights + 2 * cells) + cells);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&LAYOUT_VERSION.to_le_bytes());
    out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // body length, patched below
    out.extend_from_slice(meta.as_bytes());
    let put_f64 = |out: &mut Vec<u8>, values: &[f64]| {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    for (_, t) in &snap.params.params {
        put_f64(&mut out, t.data());
    }
    if let Some(c) = &snap.cache {
        put_f64(&mut out, c.values.data());
        put_f64(&mut out, c.imputed.data());
        out.extend_from_slice(&pack_bits(c.available.data()));
        let fresh: Vec<bool> = c.fresh.iter().flatten().copied().collect();
        out.extend_from_slice(&pack_bits(&fresh));
    }
    let body_len = (out.len() - HEADER_LEN) as u64;
    out[20..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes a file in the binary layout, verifying it in the order the
/// module docs give before trusting any field enough to size an
/// allocation by it.
///
/// # Errors
/// [`ServeError::Corrupt`] in section `header` (bad magic, metadata longer
/// than the body), `body` (the file is not as long as its header says) or
/// `digest` (CRC mismatch); [`ServeError::Snapshot`] for an unknown layout
/// version, metadata that does not parse, sections that do not fill the
/// body exactly, or a snapshot that fails validation.
pub(crate) fn decode(bytes: &[u8]) -> Result<ServeSnapshot, ServeError> {
    let corrupt = |section: &str, detail: String| ServeError::Corrupt {
        section: section.to_string(),
        detail,
    };
    let truncated = || {
        corrupt("body", format!("{} bytes cannot hold the {HEADER_LEN}-byte header", bytes.len()))
    };
    // 1. Magic, then version.
    if bytes.get(..MAGIC.len()) != Some(&MAGIC[..]) {
        return Err(corrupt("header", "bad magic: not a snapshot file".into()));
    }
    let version = le_u32(bytes, 8).ok_or_else(truncated)?;
    if version != LAYOUT_VERSION {
        return Err(ServeError::Snapshot(format!(
            "unsupported snapshot layout version {version} (this build reads {LAYOUT_VERSION})"
        )));
    }
    // 2. Declared lengths against the real file length.
    let (meta_len, body_len) =
        (le_u64(bytes, 12).ok_or_else(truncated)?, le_u64(bytes, 20).ok_or_else(truncated)?);
    let declared = usize::try_from(body_len)
        .ok()
        .and_then(|b| b.checked_add(HEADER_LEN + CRC_LEN))
        .filter(|&total| total == bytes.len());
    let Some(total) = declared else {
        return Err(corrupt(
            "body",
            format!(
                "file holds {} bytes but its header declares a {body_len}-byte body (torn or \
                 truncated write)",
                bytes.len()
            ),
        ));
    };
    let body_end = total - CRC_LEN;
    let meta_end = match usize::try_from(meta_len) {
        Ok(m) if m <= body_end - HEADER_LEN => HEADER_LEN + m,
        _ => {
            return Err(corrupt(
                "header",
                format!("metadata length {meta_len} exceeds the {body_len}-byte body"),
            ))
        }
    };
    // 3. The one CRC, over everything before it.
    let recorded = le_u32(bytes, body_end).ok_or_else(truncated)?;
    let actual = crc32(&bytes[..body_end]);
    if actual != recorded {
        return Err(corrupt(
            "digest",
            format!("crc32 {actual:08x} does not match recorded {recorded:08x}"),
        ));
    }
    // 4. Parse the metadata, size every section from it, then slice.
    let meta: Meta = std::str::from_utf8(&bytes[HEADER_LEN..meta_end])
        .map_err(|_| ServeError::Snapshot("snapshot metadata is not UTF-8".into()))
        .and_then(|text| {
            serde_json::from_str(text)
                .map_err(|e| ServeError::Snapshot(format!("snapshot metadata: {e:?}")))
        })?;
    let mut rest = &bytes[meta_end..body_end];
    let geo = meta
        .cache
        .as_ref()
        .map(|_| CacheGeometry::of(&meta.dims, meta.live_t_len, meta.retained_start, meta.window))
        .transpose()?;
    let mut sizes = Vec::with_capacity(meta.params.len() + 4);
    for p in &meta.params {
        sizes.push(p.shape.iter().try_fold(8usize, |acc, &d| acc.checked_mul(d)));
    }
    if let Some(g) = &geo {
        let f64s = g.cells.checked_mul(8);
        sizes.extend([
            f64s,
            f64s,
            Some(g.cells.div_ceil(8)),
            Some((g.n_series * g.n_windows).div_ceil(8)),
        ]);
    }
    let described = sizes.iter().try_fold(0usize, |acc, &n| acc.checked_add(n?));
    if described != Some(rest.len()) {
        return Err(ServeError::Snapshot(format!(
            "snapshot sections hold {} bytes but the metadata describes {}",
            rest.len(),
            described.map_or_else(|| "more than usize::MAX".to_string(), |n| n.to_string())
        )));
    }
    // Every size is now known to be `Some` and to sum to `rest.len()`.
    let mut sizes = sizes.into_iter().flatten();
    let mut next = || take(&mut rest, sizes.next().unwrap_or(0));
    let mut params = Vec::with_capacity(meta.params.len());
    for p in meta.params {
        let tensor = f64_section(next(), &format!("params/{}", p.name), p.shape)?;
        params.push((p.name, tensor));
    }
    let cache = match (meta.cache, geo) {
        (Some(c), Some(g)) => {
            let (values, imputed, available, fresh) = (next(), next(), next(), next());
            Some(CacheSnapshot::from_sections(
                &g,
                c.name,
                [values, available, imputed, fresh],
                c.watermark,
            )?)
        }
        _ => None,
    };
    let snap = ServeSnapshot {
        config: meta.config,
        dims: meta.dims,
        t_len: meta.t_len,
        live_t_len: meta.live_t_len,
        window: meta.window,
        retained_start: meta.retained_start,
        retention: meta.retention,
        shared_std: meta.shared_std,
        params: StoreSnapshot { params },
        cache,
    };
    snap.validate()?;
    Ok(snap)
}

/// Splits the first `n` bytes off `rest` (`n` never exceeds `rest.len()`:
/// the decoder checks the section sizes against the body first).
fn take<'a>(rest: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, tail) = rest.split_at(n.min(rest.len()));
    *rest = tail;
    head
}

/// The little-endian `u32` at byte `at`, if the buffer reaches that far.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes.get(at..at.checked_add(4)?)?.try_into().ok().map(u32::from_le_bytes)
}

/// The little-endian `u64` at byte `at`, if the buffer reaches that far.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes.get(at..at.checked_add(8)?)?.try_into().ok().map(u64::from_le_bytes)
}

impl ServeSnapshot {
    /// Writes the snapshot to `path` in the binary durable layout —
    /// **atomically and crash-completely**: the bytes land in a temporary
    /// sibling file, are synced to disk, renamed over `path`, and the
    /// directory is synced, so a crash at any point leaves either the old
    /// snapshot or the new one under the real name, never a half-written
    /// one.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] wrapping the underlying I/O failure.
    pub fn to_path(&self, path: &Path) -> Result<(), ServeError> {
        let io_err = |what: &str, e: std::io::Error| {
            ServeError::Snapshot(format!("{what} `{}`: {e}", path.display()))
        };
        let bytes = encode(self)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file =
                fs::File::create(&tmp).map_err(|e| io_err("cannot create temp file for", e))?;
            file.write_all(&bytes).map_err(|e| io_err("cannot write", e))?;
            file.sync_all().map_err(|e| io_err("cannot sync", e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err("cannot rename into", e))?;
        // The rename changed the directory, not the file: until the
        // directory entry itself reaches the disk, a power failure can undo
        // the rename and leave the old generation (or no file) in place even
        // though this call reported success.
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("cannot sync the directory of", e))
    }

    /// Reads a snapshot file written by [`ServeSnapshot::to_path`],
    /// verifying header, lengths and digest before decoding (see the module
    /// docs for the order).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] naming the broken section (`header`, `body` or
    /// `digest`); [`ServeError::Snapshot`] for I/O failures, an unknown
    /// layout version, and metadata or sections inconsistent with the
    /// snapshot geometry.
    pub fn from_path(path: &Path) -> Result<Self, ServeError> {
        let bytes = fs::read(path)
            .map_err(|e| ServeError::Snapshot(format!("cannot read `{}`: {e}", path.display())))?;
        decode(&bytes)
    }
}

impl crate::ImputationEngine {
    /// Captures the warm serving state ([`crate::ImputationEngine::snapshot`])
    /// and persists it durably at `path` in the binary layout, written via
    /// temp-file + atomic rename + directory sync ([`ServeSnapshot::to_path`]).
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] wrapping the underlying I/O failure.
    pub fn snapshot_to_path(&self, path: &Path) -> Result<(), ServeError> {
        self.snapshot().to_path(path)
    }

    /// Warm-restarts an engine from a durable snapshot file: reads and
    /// integrity-checks `path` ([`ServeSnapshot::from_path`]), then restores
    /// as [`crate::ImputationEngine::from_snapshot`].
    ///
    /// # Errors
    /// Every corruption is a typed error naming what broke — see
    /// [`ServeSnapshot::from_path`] — plus the restore errors of
    /// [`crate::ImputationEngine::from_snapshot`].
    pub fn from_snapshot_path(path: &Path) -> Result<Self, ServeError> {
        Self::from_snapshot(&ServeSnapshot::from_path(path)?)
    }

    /// Walks `paths` (order them newest-first) and warm-restarts from the
    /// first snapshot that loads clean, returning the engine together with
    /// the index of the path that served it — a corrupt newest generation
    /// degrades the restart to slightly-older state instead of no state.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] listing every candidate's failure when none
    /// of the paths yields a loadable snapshot (including an empty `paths`).
    pub fn restore_with_fallback<P: AsRef<Path>>(paths: &[P]) -> Result<(Self, usize), ServeError> {
        let mut failures = Vec::with_capacity(paths.len());
        for (i, path) in paths.iter().enumerate() {
            match Self::from_snapshot_path(path.as_ref()) {
                Ok(engine) => return Ok((engine, i)),
                Err(e) => failures.push(format!("`{}`: {e}", path.as_ref().display())),
            }
        }
        Err(ServeError::Snapshot(format!(
            "no loadable snapshot among {} candidate(s): [{}]",
            paths.len(),
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_tensor::{Mask, Tensor};
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Awkward f64 bit patterns: signed zeros, extremes, a subnormal.
    const EDGES: [f64; 8] = [0.0, -0.0, 1.5, -1e300, f64::MIN_POSITIVE, 5e-324, f64::MAX, -2.5e-10];

    /// A hand-built warm snapshot over 3 series of a ring retaining
    /// `[4, 24)` with 4-wide windows (5 freshness bits per series). Weights
    /// carry NaN and ±inf too: the layout must not care, restore rejects
    /// them later.
    fn synthetic() -> ServeSnapshot {
        let cells: Vec<f64> = (0..60).map(|i| EDGES[i % EDGES.len()] / (i as f64 + 1.0)).collect();
        let mut weights = EDGES.to_vec();
        weights.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0]);
        ServeSnapshot {
            config: DeepMviConfig::tiny(),
            dims: vec![DimSpec::indexed("sensor", "s", 3)],
            t_len: 20,
            live_t_len: 24,
            window: 4,
            retained_start: 4,
            retention: Some(20),
            shared_std: Some(0.125),
            params: StoreSnapshot {
                params: vec![
                    ("embed".into(), Tensor::from_vec(vec![3, 4], weights)),
                    ("bias".into(), Tensor::from_vec(vec![2], vec![-0.0, 7.0])),
                ],
            },
            cache: Some(CacheSnapshot {
                name: "synthetic \"ring\"".into(),
                values: Tensor::from_vec(vec![3, 20], cells.clone()),
                available: Mask::from_vec(vec![3, 20], (0..60).map(|i| i % 3 != 1).collect()),
                imputed: Tensor::from_vec(vec![3, 20], cells.iter().map(|v| -v).collect()),
                fresh: vec![vec![true, false, true, true, false], vec![false; 5], vec![true; 5]],
                watermark: vec![24, 20, 4],
            }),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Re-frames a metadata block and sections with a correct header and
    /// CRC, so a test can feed the post-CRC stages whatever it likes.
    fn framed(version: u32, meta: &[u8], sections: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        out.extend_from_slice(&((meta.len() + sections.len()) as u64).to_le_bytes());
        out.extend_from_slice(meta);
        out.extend_from_slice(sections);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// The metadata block and the sections of an encoded file.
    fn split(file: &[u8]) -> (&[u8], &[u8]) {
        let meta_len = le_u64(file, 12).unwrap() as usize;
        let body = &file[HEADER_LEN..file.len() - CRC_LEN];
        body.split_at(meta_len)
    }

    fn is_typed(result: &Result<ServeSnapshot, ServeError>) -> bool {
        matches!(result, Ok(_) | Err(ServeError::Corrupt { .. } | ServeError::Snapshot(_)))
    }

    #[test]
    fn every_section_roundtrips_bit_exactly() {
        let snap = synthetic();
        let file = encode(&snap).unwrap();
        let back = decode(&file).unwrap();
        assert_eq!(back.params.params.len(), snap.params.params.len());
        for ((name_a, a), (name_b, b)) in snap.params.params.iter().zip(&back.params.params) {
            assert_eq!(name_a, name_b);
            assert_eq!(a.shape(), b.shape());
            assert_eq!(bits(a.data()), bits(b.data()), "param `{name_a}`");
        }
        let (c, d) = (snap.cache.as_ref().unwrap(), back.cache.as_ref().unwrap());
        assert_eq!(bits(c.values.data()), bits(d.values.data()));
        assert_eq!(bits(c.imputed.data()), bits(d.imputed.data()));
        assert_eq!(d.values.data()[1].to_bits(), (-0.0f64).to_bits(), "-0.0 kept its sign");
        assert_eq!(c.available, d.available);
        assert_eq!(c.fresh, d.fresh);
        assert_eq!((&c.name, &c.watermark), (&d.name, &d.watermark));
        assert_eq!(
            (back.t_len, back.live_t_len, back.window, back.retained_start, back.retention),
            (20, 24, 4, 4, Some(20))
        );
        assert_eq!(back.shared_std.map(f64::to_bits), Some(0.125f64.to_bits()));
        assert_eq!(back.dims, snap.dims);
        assert_eq!(
            serde_json::to_string(&back.config).unwrap(),
            serde_json::to_string(&snap.config).unwrap()
        );

        // The file is the raw sections plus a small fixed overhead.
        let (meta, sections) = split(&file);
        assert_eq!(sections.len(), 8 * (14 + 2 * 60) + 60usize.div_ceil(8) + 15usize.div_ceil(8));
        assert_eq!(file.len(), HEADER_LEN + meta.len() + sections.len() + CRC_LEN);

        // A model-only snapshot has no cache sections at all.
        let model_only = ServeSnapshot { cache: None, ..snap };
        let back = decode(&encode(&model_only).unwrap()).unwrap();
        assert!(back.cache.is_none());
        assert_eq!(
            bits(back.params.params[0].1.data()),
            bits(model_only.params.params[0].1.data())
        );
    }

    #[test]
    fn header_damage_fails_typed_before_any_sized_allocation() {
        let file = encode(&synthetic()).unwrap();
        let section = |r: Result<ServeSnapshot, ServeError>| match r {
            Err(ServeError::Corrupt { section, .. }) => section,
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        };

        let mut bad_magic = file.clone();
        bad_magic[0] = b'X';
        assert_eq!(section(decode(&bad_magic)), "header");
        assert_eq!(section(decode(b"{\"version\":4}")), "header", "JSON is not a file layout");
        assert_eq!(section(decode(b"")), "header");

        let mut future = file.clone();
        future[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            decode(&future),
            Err(ServeError::Snapshot(msg)) if msg.contains("layout version 7")
        ));

        // Declared lengths far beyond the file: typed, and nothing was sized
        // by them (an allocation of u64::MAX bytes would abort the test).
        for body_len in [u64::MAX, u64::MAX - 31, (file.len() as u64) * 1000] {
            let mut long = file.clone();
            long[20..28].copy_from_slice(&body_len.to_le_bytes());
            assert_eq!(section(decode(&long)), "body", "body_len {body_len}");
        }
        let mut long_meta = file.clone();
        long_meta[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(section(decode(&long_meta)), "header");

        // Truncation anywhere is a short body (or a short magic).
        for keep in [4, 8, 11, 27, HEADER_LEN + 3, file.len() / 2, file.len() - 1] {
            let want = if keep < MAGIC.len() { "header" } else { "body" };
            assert_eq!(section(decode(&file[..keep])), want, "keep {keep}");
        }

        // One flipped bit past the header is the digest's to catch.
        let mut flipped = file.clone();
        let mid = file.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(section(decode(&flipped)), "digest");
        let mut crc = file.clone();
        let last = crc.len() - 1;
        crc[last] ^= 0x01;
        assert_eq!(section(decode(&crc)), "digest");
    }

    #[test]
    fn metadata_inconsistent_with_its_sections_fails_typed() {
        let file = encode(&synthetic()).unwrap();
        let (meta, sections) = split(&file);
        let meta = std::str::from_utf8(meta).unwrap();
        assert!(decode(&framed(LAYOUT_VERSION, meta.as_bytes(), sections)).is_ok());

        let cases = [
            // A param shape whose byte size overflows, and one that is merely
            // enormous: both are refused by size arithmetic, not allocation.
            meta.replacen("\"shape\":[", "\"shape\":[4611686018427387904,4,", 1),
            meta.replacen("\"shape\":[", "\"shape\":[1099511627776,", 1),
            // One section too few bytes for the declared shape.
            meta.replacen("\"shape\":[2]", "\"shape\":[3]", 1),
            // Geometry the cache cannot have.
            meta.replacen("\"window\":4", "\"window\":0", 1),
            meta.replacen("\"retained_start\":4", "\"retained_start\":24", 1),
            // A watermark outside the retained span (same byte count).
            meta.replacen("[24,20,4]", "[24,20,2]", 1),
            // Not JSON at all.
            meta.replacen('{', "[", 1),
        ];
        for (i, bad) in cases.iter().enumerate() {
            assert_ne!(bad, meta, "case {i} did not apply");
            assert!(
                matches!(
                    decode(&framed(LAYOUT_VERSION, bad.as_bytes(), sections)),
                    Err(ServeError::Snapshot(_))
                ),
                "case {i}: {bad}"
            );
        }
        // Extra or missing section bytes are refused the same way.
        let mut extra = sections.to_vec();
        extra.push(0);
        assert!(matches!(
            decode(&framed(LAYOUT_VERSION, meta.as_bytes(), &extra)),
            Err(ServeError::Snapshot(_))
        ));
        // Non-finite cached values are refused by the shared validator.
        let mut poisoned = sections.to_vec();
        let cache_at = 8 * 14;
        poisoned[cache_at..cache_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            decode(&framed(LAYOUT_VERSION, meta.as_bytes(), &poisoned)),
            Err(ServeError::Snapshot(msg)) if msg.contains("non-finite")
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes — raw, behind a valid magic and version, or
        /// written over the metadata or sections of a real file with the CRC
        /// recomputed so they reach the parser — decode to `Ok` or a typed
        /// error, and never panic.
        #[test]
        fn arbitrary_bytes_decode_to_ok_or_a_typed_error(
            noise in proptest::collection::vec(any::<u8>(), 0..600),
            mode in 0u8..4,
            at in any::<usize>(),
        ) {
            let file = encode(&synthetic()).unwrap();
            let (meta, sections) = split(&file);
            let overwrite = |target: &[u8]| {
                let mut out = target.to_vec();
                let start = at % out.len();
                for (dst, &src) in out[start..].iter_mut().zip(&noise) {
                    *dst = src;
                }
                out
            };
            let input = match mode {
                0 => noise.clone(),
                1 => {
                    let mut v = MAGIC.to_vec();
                    v.extend_from_slice(&LAYOUT_VERSION.to_le_bytes());
                    v.extend_from_slice(&noise);
                    v
                }
                2 => framed(LAYOUT_VERSION, &overwrite(meta), sections),
                _ => framed(LAYOUT_VERSION, meta, &overwrite(sections)),
            };
            let result = decode(&input);
            prop_assert!(is_typed(&result));
            if mode < 2 {
                prop_assert!(result.is_err(), "noise must not decode");
            }
        }
    }
}
