//! Coordinator crash recovery: a plain versioned binary checkpoint plus
//! an epoch-plane write-ahead log. No external dependencies — the
//! encoding is little-endian `u64`/`f64`-bits with an FNV-1a checksum,
//! written in full here so the format is auditable in one file.
//!
//! Lifecycle: the coordinator appends one [`WalEntry`] per closed epoch
//! and periodically writes a full [`CheckpointState`] (which truncates
//! the WAL). Recovery reads the checkpoint, rebuilds the estimator's
//! retained planes — only the live window's, so a checkpoint stops
//! growing once the window fills — then replays the WAL entries,
//! re-running the window estimate for each so the EM warm chain, health
//! counters, and published snapshots advance exactly as the uncrashed
//! run's did. Every plane is a whole number below 2⁵³, so the rebuilt
//! window sum is exact and the recovered coordinator's estimates are
//! **bit-identical** to an uncrashed run — swept over every kill point by
//! the recovery tests.
//!
//! Failure behaviour is structured, never a panic: wrong magic, a
//! version this build does not speak, truncated files (or lengths the
//! file cannot hold), and checksum mismatches — the WAL header has its
//! own — each map to their own [`CheckpointError`] variant.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use crate::coord::CoordStats;
use dam_core::validate::IngestSummary;
use dam_stream::PipelineHealth;

/// Checkpoint file magic (8 bytes).
const CKPT_MAGIC: &[u8; 8] = b"DAMCKPT\0";
/// WAL file magic (8 bytes).
const WAL_MAGIC: &[u8; 8] = b"DAMWAL\0\0";
/// Format version both files carry. Bump on any layout change (2: the
/// checkpoint holds only the window's planes, the WAL header a checksum;
/// 3: the health block lost its backend-fallback counter).
pub const FORMAT_VERSION: u32 = 3;

/// Why a checkpoint or WAL could not be read or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (wraps the OS error).
    Io(std::io::Error),
    /// The file does not start with the expected magic — not a
    /// checkpoint/WAL at all.
    BadMagic {
        /// Which file kind was being read.
        kind: &'static str,
    },
    /// The file speaks a format version this build does not.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The file ends mid-structure.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// Payload bytes do not match their recorded checksum.
    ChecksumMismatch {
        /// Which file kind failed verification.
        kind: &'static str,
    },
    /// Structurally valid but semantically impossible contents.
    Corrupt {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::BadMagic { kind } => write!(f, "{kind}: bad magic"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "format version {found}, this build speaks {expected}")
            }
            CheckpointError::Truncated { context } => {
                write!(f, "truncated while reading {context}")
            }
            CheckpointError::ChecksumMismatch { kind } => write!(f, "{kind}: checksum mismatch"),
            CheckpointError::Corrupt { detail } => write!(f, "corrupt contents: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Everything the coordinator needs persisted to resume bit-identically:
/// the merged planes of the live window (the epoch ring rebuilds from
/// them), counters, health, per-epoch node coverage of the live window,
/// and the EM warm-start seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Cells per plane.
    pub n_cells: usize,
    /// The merged planes of the last `min(epochs closed, window)` epochs,
    /// oldest first. The stream head they end at is
    /// `health.epochs_ingested + health.epochs_missed`.
    pub planes: Vec<Vec<f64>>,
    /// Total reports ingested.
    pub reports: u64,
    /// Simulated clock at checkpoint time.
    pub clock: u64,
    /// Running pipeline health.
    pub health: PipelineHealth,
    /// Coordinator collection stats.
    pub stats: CoordStats,
    /// Arrived-node counts of the most recent `window` epochs (oldest
    /// first) — what decides `partial_window` after restore.
    pub coverage: Vec<usize>,
    /// The EM warm-start seed (previous window's raw estimate). This is
    /// also, by construction, exactly the latest *published* estimate —
    /// which is how recovery republishes the last snapshot without
    /// re-running EM (a re-run would advance the warm chain and break
    /// bit-identity).
    pub warm: Option<Vec<f64>>,
    /// EM iterations of the latest published snapshot.
    pub snapshot_em_iters: u64,
    /// Whether the latest published snapshot warm-started.
    pub snapshot_warm: bool,
}

/// One closed epoch, as appended to the WAL: the merged (sanitized,
/// rescaled) plane plus the deltas the close applied to health and
/// stats, and the clock after the close. Replaying entries in order
/// reproduces the coordinator's state transition exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The epoch closed.
    pub epoch: u64,
    /// Closed below quorum (plane is all zeros, epoch recorded missed).
    pub missed: bool,
    /// Node planes that arrived before the close.
    pub arrived: usize,
    /// `nodes_missed` increment this close applied.
    pub nodes_missed_delta: usize,
    /// `sanitized_cells` increment this close applied (corrupted-plane
    /// repairs).
    pub sanitized_delta: usize,
    /// Duplicate deliveries dropped during this collect.
    pub dup_delta: u64,
    /// Retry attempts this collect spent.
    pub retries_delta: u64,
    /// Simulated clock after the close.
    pub clock_after: u64,
    /// Merged validated-ingest summary of the arrived nodes.
    pub summary: IngestSummary,
    /// The merged plane ingested (zeros when `missed`).
    pub plane: Vec<f64>,
}

// ---- byte-level encoding ------------------------------------------------

/// FNV-1a over `bytes` — the integrity check both files carry.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounds-checked little-endian reader: every decode returns
/// [`CheckpointError::Truncated`] instead of panicking when the bytes
/// run out.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes, checked against the bytes left, so no length
    /// read from a file sizes an allocation the file cannot back.
    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() - self.pos {
            return Err(CheckpointError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1, context)?[0])
    }

    #[expect(clippy::unwrap_used, reason = "bytes(4) returned exactly 4 bytes or errored above")]
    fn u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4, context)?.try_into().unwrap()))
    }

    #[expect(clippy::unwrap_used, reason = "bytes(8) returned exactly 8 bytes or errored above")]
    fn u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8, context)?.try_into().unwrap()))
    }

    fn usize(&mut self, context: &'static str) -> Result<usize, CheckpointError> {
        Ok(self.u64(context)? as usize)
    }

    /// `n` little-endian words, bounds-checked as one run of bytes.
    #[expect(clippy::unwrap_used, reason = "chunks_exact(8) yields 8-byte slices only")]
    fn words(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<impl Iterator<Item = u64> + 'a, CheckpointError> {
        let bytes = self.bytes(n.saturating_mul(8), context)?;
        Ok(bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())))
    }
}

fn encode_health(buf: &mut Vec<u8>, h: &PipelineHealth) {
    push_u64(buf, h.ingest.seen);
    push_u64(buf, h.ingest.quarantined);
    push_u64(buf, h.ingest.clamped);
    push_u64(buf, h.epochs_ingested as u64);
    push_u64(buf, h.epochs_missed as u64);
    push_u64(buf, h.sanitized_cells as u64);
    push_u64(buf, h.em_reseeds as u64);
    push_u64(buf, h.degenerate_windows as u64);
    push_u64(buf, h.nodes_missed as u64);
    buf.push(u8::from(h.partial_window));
}

fn decode_health(r: &mut Reader<'_>) -> Result<PipelineHealth, CheckpointError> {
    Ok(PipelineHealth {
        ingest: IngestSummary {
            seen: r.u64("health.seen")?,
            quarantined: r.u64("health.quarantined")?,
            clamped: r.u64("health.clamped")?,
        },
        epochs_ingested: r.usize("health.epochs_ingested")?,
        epochs_missed: r.usize("health.epochs_missed")?,
        sanitized_cells: r.usize("health.sanitized_cells")?,
        em_reseeds: r.usize("health.em_reseeds")?,
        degenerate_windows: r.usize("health.degenerate_windows")?,
        nodes_missed: r.usize("health.nodes_missed")?,
        partial_window: r.u8("health.partial_window")? != 0,
    })
}

impl CheckpointState {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.planes.len() * self.n_cells * 8);
        buf.extend_from_slice(CKPT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        push_u64(&mut buf, self.n_cells as u64);
        push_u64(&mut buf, self.planes.len() as u64);
        push_u64(&mut buf, self.reports);
        push_u64(&mut buf, self.clock);
        encode_health(&mut buf, &self.health);
        push_u64(&mut buf, self.stats.epochs_closed);
        push_u64(&mut buf, self.stats.dup_dropped);
        push_u64(&mut buf, self.stats.retries);
        push_u64(&mut buf, self.coverage.len() as u64);
        for &c in &self.coverage {
            push_u64(&mut buf, c as u64);
        }
        push_u64(&mut buf, self.snapshot_em_iters);
        buf.push(u8::from(self.snapshot_warm));
        // The warm state lives on the *input grid*, not the kernel's
        // (possibly padded) output plane — it carries its own length.
        buf.push(u8::from(self.warm.is_some()));
        if let Some(warm) = &self.warm {
            push_u64(&mut buf, warm.len() as u64);
            for &v in warm {
                push_f64(&mut buf, v);
            }
        }
        for plane in &self.planes {
            for &v in plane {
                push_f64(&mut buf, v);
            }
        }
        let checksum = fnv1a(&buf);
        push_u64(&mut buf, checksum);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 + 4 + 8 {
            return Err(CheckpointError::Truncated { context: "checkpoint header" });
        }
        if &bytes[..8] != CKPT_MAGIC {
            return Err(CheckpointError::BadMagic { kind: "checkpoint" });
        }
        let payload = &bytes[..bytes.len() - 8];
        #[expect(
            clippy::unwrap_used,
            reason = "the length guard above ensures at least 20 bytes, so the 8-byte tail exists"
        )]
        let recorded = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(payload) != recorded {
            return Err(CheckpointError::ChecksumMismatch { kind: "checkpoint" });
        }
        let mut r = Reader::new(payload);
        r.bytes(8, "checkpoint magic")?;
        let version = r.u32("checkpoint version")?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let n_cells = r.usize("n_cells")?;
        if n_cells == 0 {
            return Err(CheckpointError::Corrupt { detail: "n_cells = 0".into() });
        }
        let n_planes = r.usize("n_planes")?;
        let reports = r.u64("reports")?;
        let clock = r.u64("clock")?;
        let health = decode_health(&mut r)?;
        let stats = CoordStats {
            epochs_closed: r.u64("stats.epochs_closed")?,
            dup_dropped: r.u64("stats.dup_dropped")?,
            retries: r.u64("stats.retries")?,
        };
        let n_cov = r.usize("coverage.len")?;
        let coverage = r.words(n_cov, "coverage")?.map(|c| c as usize).collect();
        let snapshot_em_iters = r.u64("snapshot_em_iters")?;
        let snapshot_warm = r.u8("snapshot_warm")? != 0;
        let warm = if r.u8("warm flag")? != 0 {
            let n_warm = r.usize("warm.len")?;
            Some(r.words(n_warm, "warm cells")?.map(f64::from_bits).collect())
        } else {
            None
        };
        let planes = (0..n_planes)
            .map(|_| Ok(r.words(n_cells, "plane cells")?.map(f64::from_bits).collect()))
            .collect::<Result<_, CheckpointError>>()?;
        if r.pos != payload.len() {
            return Err(CheckpointError::Corrupt {
                detail: format!("{} bytes past the last plane", payload.len() - r.pos),
            });
        }
        Ok(Self {
            n_cells,
            planes,
            reports,
            clock,
            health,
            stats,
            coverage,
            warm,
            snapshot_em_iters,
            snapshot_warm,
        })
    }
}

impl WalEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        push_u64(buf, self.epoch);
        buf.push(u8::from(self.missed));
        push_u64(buf, self.arrived as u64);
        push_u64(buf, self.nodes_missed_delta as u64);
        push_u64(buf, self.sanitized_delta as u64);
        push_u64(buf, self.dup_delta);
        push_u64(buf, self.retries_delta);
        push_u64(buf, self.clock_after);
        push_u64(buf, self.summary.seen);
        push_u64(buf, self.summary.quarantined);
        push_u64(buf, self.summary.clamped);
        for &v in &self.plane {
            push_f64(buf, v);
        }
        let checksum = fnv1a(&buf[start..]);
        push_u64(buf, checksum);
    }

    fn decode(r: &mut Reader<'_>, n_cells: usize) -> Result<Self, CheckpointError> {
        let start = r.pos;
        let epoch = r.u64("wal.epoch")?;
        let missed = r.u8("wal.missed")? != 0;
        let arrived = r.usize("wal.arrived")?;
        let nodes_missed_delta = r.usize("wal.nodes_missed_delta")?;
        let sanitized_delta = r.usize("wal.sanitized_delta")?;
        let dup_delta = r.u64("wal.dup_delta")?;
        let retries_delta = r.u64("wal.retries_delta")?;
        let clock_after = r.u64("wal.clock_after")?;
        let summary = IngestSummary {
            seen: r.u64("wal.seen")?,
            quarantined: r.u64("wal.quarantined")?,
            clamped: r.u64("wal.clamped")?,
        };
        let plane = r.words(n_cells, "wal plane cells")?.map(f64::from_bits).collect();
        let end = r.pos;
        let recorded = r.u64("wal entry checksum")?;
        if fnv1a(&r.buf[start..end]) != recorded {
            return Err(CheckpointError::ChecksumMismatch { kind: "wal entry" });
        }
        Ok(Self {
            epoch,
            missed,
            arrived,
            nodes_missed_delta,
            sanitized_delta,
            dup_delta,
            retries_delta,
            clock_after,
            summary,
            plane,
        })
    }
}

/// Directory-backed store for one coordinator's checkpoint + WAL pair.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating the directory if needed) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Path of the checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.bin")
    }

    /// Removes any persisted state (a fresh deployment over an old dir).
    pub fn wipe(&self) -> Result<(), CheckpointError> {
        for path in [self.checkpoint_path(), self.wal_path()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Writes a full checkpoint (write-temp-then-rename, so readers never
    /// observe a half-written file) and truncates the WAL — entries up to
    /// the checkpoint are now redundant. Returns the encoded size in
    /// bytes (the coordinator's `coord_checkpoint_bytes` counter).
    pub fn write_checkpoint(&self, state: &CheckpointState) -> Result<u64, CheckpointError> {
        let tmp = self.dir.join("checkpoint.tmp");
        let bytes = state.encode();
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.checkpoint_path())?;
        match fs::remove_file(self.wal_path()) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(bytes.len() as u64)
    }

    /// Reads the checkpoint, `Ok(None)` when none has ever been written.
    pub fn read_checkpoint(&self) -> Result<Option<CheckpointState>, CheckpointError> {
        let bytes = match fs::read(self.checkpoint_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        CheckpointState::decode(&bytes).map(Some)
    }

    /// Appends one closed epoch to the WAL (creating it, with its
    /// header, on first append after a checkpoint). Returns the bytes
    /// appended, header included (the `coord_wal_bytes` counter).
    pub fn append_wal(&self, entry: &WalEntry) -> Result<u64, CheckpointError> {
        let path = self.wal_path();
        let mut written = 0u64;
        let mut file = if path.exists() {
            fs::OpenOptions::new().append(true).open(&path)?
        } else {
            let mut f = fs::File::create(&path)?;
            let mut header = Vec::with_capacity(28);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            push_u64(&mut header, entry.plane.len() as u64);
            let checksum = fnv1a(&header);
            push_u64(&mut header, checksum);
            f.write_all(&header)?;
            written += header.len() as u64;
            f
        };
        let mut buf = Vec::with_capacity(96 + entry.plane.len() * 8);
        entry.encode(&mut buf);
        file.write_all(&buf)?;
        file.sync_all()?;
        Ok(written + buf.len() as u64)
    }

    /// Reads every WAL entry in append order (empty when no WAL exists).
    pub fn read_wal(&self) -> Result<Vec<WalEntry>, CheckpointError> {
        let bytes = match fs::read(self.wal_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        if r.bytes(8, "wal magic")? != WAL_MAGIC {
            return Err(CheckpointError::BadMagic { kind: "wal" });
        }
        let version = r.u32("wal version")?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let n_cells = r.usize("wal n_cells")?;
        // The header checksum covers magic, version and n_cells.
        if fnv1a(&bytes[..20]) != r.u64("wal header checksum")? {
            return Err(CheckpointError::ChecksumMismatch { kind: "wal header" });
        }
        if n_cells == 0 {
            return Err(CheckpointError::Corrupt { detail: "wal n_cells = 0".into() });
        }
        let mut entries = Vec::new();
        while r.pos < bytes.len() {
            entries.push(WalEntry::decode(&mut r, n_cells)?);
        }
        Ok(entries)
    }
}
