//! The tensor container: the one file format for every set of tensors
//! this repo writes — serving snapshots, training checkpoints
//! ([`crate::checkpoint`]) and the `repro dist` role artifacts.
//!
//! Every entry sits in a *section* (`var` for model variables, one
//! section per optimizer slot kind, and so on), has a name unique
//! within its section, an element type (`f32` or `u64`) and a shape.
//! Layout (`PLXSNAP2`), all integers little-endian:
//!
//! ```text
//!  0 magic      8 B  "PLXSNAP2"
//!  8 index_crc  4 B  CRC32 over bytes [12, 32 + index_len):
//!                    data_crc, step, index_len and the index
//! 12 data_crc   4 B  CRC32 over bytes [32 + index_len, EOF)
//! 16 step       8 B  completed training iterations
//! 24 index_len  8 B  byte length of the index
//! 32 index:          entry count u64, then per entry:
//!                    section_len u64, section bytes, name_len u64,
//!                    name bytes, dtype u64 (0 = f32, 1 = u64),
//!                    rank u64, dims u64 * rank,
//!                    data_offset u64 (absolute), data_len u64 (bytes)
//!    data:           raw little-endian blocks at the declared offsets,
//!                    each aligned to DATA_ALIGN; the file ends where
//!                    the last block ends
//! ```
//!
//! Verification has two levels. [`Snapshot::open`] — the serving path,
//! timed by the serving benchmarks — checks the header, the index CRC
//! and every declared range, and never reads the weight pages: those
//! are faulted in lazily by the first forward pass, read in place
//! through [`TensorView`]s borrowing the mapped file. Every range must
//! sit past the index and inside the file, be `DATA_ALIGN`-aligned,
//! match its shape's volume exactly and overlap no other range, and
//! the file must end where the last block does. The index parser
//! bounds every declared count and length by the bytes that remain
//! before allocating, so a forged index fails closed instead of
//! panicking. [`Snapshot::open_verified`] — checkpoint restore and
//! role-artifact reads — also checks the data CRC, so a flipped weight
//! bit is rejected.
//!
//! [`Writer::write`] is the one writer: atomic (temp file + rename),
//! so a process re-opening the path mid-publish sees either the old or
//! the new file, never a torn one — the mechanism behind the
//! online-serving staleness bound.

use std::collections::HashMap;
use std::path::Path;

use parallax_dataflow::{Graph, VarStore};
use parallax_tensor::{crc32, Shape, Tensor, TensorView};

use crate::{CoreError, Result};

const MAGIC: &[u8; 8] = b"PLXSNAP2";

/// Bytes before the index: magic, two CRCs, step, index length.
const HEADER_LEN: usize = 32;

/// Smallest index entry: section and name lengths, dtype, rank,
/// offset and length, with empty strings and rank 0.
const MIN_ENTRY_LEN: usize = 6 * 8;

/// Alignment of every data block, generous enough for any SIMD load
/// the kernels may issue over a mapped view (a cache line).
pub const DATA_ALIGN: usize = 64;

/// The section holding model variables, keyed by graph variable name.
pub const VAR: &str = "var";

// The data section stores raw little-endian bytes and the loader
// reinterprets the mapped pages in place as f32s.
#[cfg(not(target_endian = "little"))]
compile_error!("zero-copy tensor containers require a little-endian target");

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Config(format!("snapshot I/O: {e}"))
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Config(format!("snapshot corrupt: {}", msg.into()))
}

fn align_up(offset: usize, align: usize) -> usize {
    offset.div_ceil(align) * align
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Element type of a container entry, stored in the index as its
/// discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// IEEE-754 single precision.
    F32 = 0,
    /// Unsigned 64-bit integer.
    U64 = 1,
}

impl Dtype {
    fn size(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::U64 => 8,
        }
    }
}

/// One entry in a container index.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Section the entry belongs to (e.g. [`VAR`]).
    pub section: String,
    /// Name, unique within the section.
    pub name: String,
    /// Element type.
    pub dtype: Dtype,
    /// Dense shape.
    pub shape: Shape,
    /// Absolute byte offset of the value block in the file.
    pub offset: usize,
    /// Byte length of the value block (`dtype size * shape.volume()`).
    pub len: usize,
}

enum Data<'a> {
    F32(&'a [f32]),
    U64(Vec<u64>),
}

impl Data<'_> {
    fn dtype(&self) -> Dtype {
        match self {
            Data::F32(_) => Dtype::F32,
            Data::U64(_) => Dtype::U64,
        }
    }
}

/// A set of tensors assembled for one atomic [`Writer::write`].
/// Entries keep the order they were added in.
#[derive(Default)]
pub struct Writer<'a> {
    entries: Vec<(String, String, Shape, Data<'a>)>,
}

impl<'a> Writer<'a> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, section: &str, name: &str, shape: Shape, data: Data<'a>) -> &mut Self {
        self.entries
            .push((section.into(), name.into(), shape, data));
        self
    }

    /// Adds `value` as entry `name` of `section`.
    pub fn tensor(&mut self, section: &str, name: &str, value: &'a Tensor) -> &mut Self {
        self.push(
            section,
            name,
            value.shape().clone(),
            Data::F32(value.data()),
        )
    }

    /// Adds `values` as a rank-1 `f32` entry.
    pub fn f32s(&mut self, section: &str, name: &str, values: &'a [f32]) -> &mut Self {
        self.push(section, name, Shape::new([values.len()]), Data::F32(values))
    }

    /// Adds `values` as a rank-1 `u64` entry.
    pub fn u64s(&mut self, section: &str, name: &str, values: Vec<u64>) -> &mut Self {
        self.push(section, name, Shape::new([values.len()]), Data::U64(values))
    }

    /// Writes the set, stamped with `step`, to `path` atomically: a
    /// sibling temp file is written in full, then renamed over `path`,
    /// so a crash mid-write leaves the previous file intact.
    pub fn write(&self, step: u64, path: &Path) -> Result<()> {
        // The index size depends on names and shapes alone, so data
        // offsets are known before anything is serialized.
        let index_len = 8 + self
            .entries
            .iter()
            .map(|(section, name, shape, _)| {
                MIN_ENTRY_LEN + section.len() + name.len() + 8 * shape.dims().len()
            })
            .sum::<usize>();
        let data_start = HEADER_LEN + index_len;
        let mut end = data_start;
        let blocks: Vec<(usize, usize)> = self
            .entries
            .iter()
            .map(|(_, _, shape, data)| {
                let offset = align_up(end, DATA_ALIGN);
                end = offset + data.dtype().size() * shape.volume();
                (offset, end - offset)
            })
            .collect();

        let put = |out: &mut Vec<u8>, x: u64| out.extend_from_slice(&x.to_le_bytes());
        let mut out = Vec::with_capacity(end);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 8]); // both CRCs, filled in last
        put(&mut out, step);
        put(&mut out, index_len as u64);
        put(&mut out, self.entries.len() as u64);
        for ((section, name, shape, data), &(offset, len)) in self.entries.iter().zip(&blocks) {
            put(&mut out, section.len() as u64);
            out.extend_from_slice(section.as_bytes());
            put(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put(&mut out, data.dtype() as u64);
            put(&mut out, shape.dims().len() as u64);
            for &d in shape.dims() {
                put(&mut out, d as u64);
            }
            put(&mut out, offset as u64);
            put(&mut out, len as u64);
        }
        debug_assert_eq!(out.len(), data_start);
        for ((_, _, _, data), &(offset, _)) in self.entries.iter().zip(&blocks) {
            out.resize(offset, 0);
            match data {
                Data::F32(xs) => out.extend(xs.iter().flat_map(|x| x.to_le_bytes())),
                Data::U64(xs) => out.extend(xs.iter().flat_map(|x| x.to_le_bytes())),
            }
        }
        let data_crc = crc32(&out[data_start..]);
        out[12..16].copy_from_slice(&data_crc.to_le_bytes());
        let index_crc = crc32(&out[12..data_start]);
        out[8..12].copy_from_slice(&index_crc.to_le_bytes());

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, &out).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }
}

/// A [`Writer`] holding every variable of `store` (named per `graph`)
/// in section [`VAR`].
pub(crate) fn var_writer<'a>(graph: &Graph, store: &'a VarStore) -> Result<Writer<'a>> {
    let mut writer = Writer::new();
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let value = store.get(var)?;
        if value.shape() != &def.shape {
            return Err(CoreError::Config(format!(
                "variable '{}' has shape {}, graph expects {}",
                def.name,
                value.shape(),
                def.shape
            )));
        }
        writer.tensor(VAR, &def.name, value);
    }
    Ok(writer)
}

/// Writes a weights-only serving snapshot of `store` (named per
/// `graph`) taken after `step` completed training iterations,
/// atomically (temp file + rename).
pub fn save(graph: &Graph, store: &VarStore, step: u64, path: &Path) -> Result<()> {
    let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.save");
    var_writer(graph, store)?.write(step, path)?;
    parallax_trace::counter("snapshot.published").add(1);
    Ok(())
}

/// The bytes behind an open snapshot: a private read-only mapping on
/// unix, an owned (4-byte-aligned) buffer elsewhere or when mapping
/// fails.
enum Backing {
    #[cfg(unix)]
    Mmap {
        ptr: *mut u8,
        len: usize,
    },
    Owned {
        buf: Vec<u32>,
        len: usize,
    },
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ MAP_PRIVATE
            // mapping held until Drop; no writer exists.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            // SAFETY: reinterprets the owned u32 buffer as bytes; `len`
            // never exceeds `buf.len() * 4` (see `read_owned`).
            Backing::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = *self {
            // SAFETY: exactly the region returned by mmap in
            // `map_file`, unmapped once (Drop runs once).
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

// SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for the
// lifetime of the value, so moving it across threads is sound.
unsafe impl Send for Backing {}
// SAFETY: as above — concurrent readers of an immutable private
// mapping (or of the owned buffer) never race.
unsafe impl Sync for Backing {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;

    // std already links libc on unix; declaring the two calls we need
    // avoids a vendored libc crate for one mmap.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(unix)]
fn map_file(file: &std::fs::File, len: usize) -> Option<Backing> {
    use std::os::unix::io::AsRawFd;
    // Miri cannot interpret the raw mmap extern call; fall back to the
    // owned-buffer backing so the snapshot suite runs under `cargo
    // miri test` (the CI unsafe-memory job).
    if cfg!(miri) {
        return None;
    }
    // SAFETY: mmap with a null hint allocates fresh address space; the
    // fd is open and `len` matches the file length probed by the
    // caller. Failure is reported via the sentinel return, checked
    // below before the pointer is ever used.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr.is_null() || ptr as usize == usize::MAX {
        return None;
    }
    Some(Backing::Mmap {
        ptr: ptr.cast(),
        len,
    })
}

fn read_owned(file: &mut std::fs::File, len: usize) -> Result<Backing> {
    use std::io::Read as _;
    // A u32 buffer keeps the fallback 4-byte aligned like the mapping.
    let mut buf = vec![0u32; len.div_ceil(4)];
    // SAFETY: the buffer holds `len.div_ceil(4) * 4 >= len` bytes, and
    // any byte pattern is a valid u32.
    let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    file.read_exact(dst).map_err(io_err)?;
    Ok(Backing::Owned { buf, len })
}

/// Bounds-checked reader over the index bytes. Every take is checked
/// against what remains before anything is sliced or allocated, so a
/// forged count or length fails closed.
struct IndexReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> IndexReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: u64) -> Result<&'a [u8]> {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| corrupt("index truncated"))?;
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64> {
        self.take(8).map(le_u64)
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("index value exceeds the address space"))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u64()?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| corrupt("name is not UTF-8"))
    }
}

/// An open, validated container. `f32` entries are exposed as
/// [`TensorView`]s borrowing the mapped file bytes — no weight bytes
/// are copied or deserialized until a reader asks for them.
pub struct Snapshot {
    backing: Backing,
    step: u64,
    data_start: usize,
    data_crc: u32,
    entries: Vec<SnapshotEntry>,
    /// Entry index by section, then name.
    sections: HashMap<String, HashMap<String, usize>>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("step", &self.step)
            .field("entries", &self.entries.len())
            .field("bytes", &self.backing.bytes().len())
            .finish()
    }
}

impl Snapshot {
    /// Opens and validates a container, mmap-ing it read-only (falling
    /// back to an aligned owned buffer if mapping fails).
    ///
    /// Validation is fail-closed but reads only the header and the
    /// index: bad magic, an index CRC mismatch, a forged count or
    /// length, a duplicate name within a section, or a declared byte
    /// range that is misaligned, overlaps another, disagrees with its
    /// shape's volume or runs past EOF all reject the file. The data
    /// CRC is left to [`Snapshot::open_verified`].
    pub fn open(path: &Path) -> Result<Snapshot> {
        let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "snapshot.load");
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let file_len =
            usize::try_from(file_len).map_err(|_| corrupt("file larger than the address space"))?;
        if file_len < HEADER_LEN {
            return Err(corrupt("shorter than the fixed header"));
        }
        #[cfg(unix)]
        let backing = match map_file(&file, file_len) {
            Some(b) => b,
            None => read_owned(&mut file, file_len)?,
        };
        #[cfg(not(unix))]
        let backing = read_owned(&mut file, file_len)?;

        let bytes = backing.bytes();
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PLXSNAP2 container)"));
        }
        let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let data_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let step = le_u64(&bytes[16..24]);
        let data_start = usize::try_from(le_u64(&bytes[24..32]))
            .ok()
            .and_then(|len| HEADER_LEN.checked_add(len))
            .filter(|&end| end <= file_len)
            .ok_or_else(|| corrupt("index runs past EOF"))?;
        let actual_crc = crc32(&bytes[12..data_start]);
        if stored_crc != actual_crc {
            return Err(corrupt(format!(
                "index CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }

        let mut index = IndexReader {
            buf: &bytes[HEADER_LEN..data_start],
            at: 0,
        };
        let count = index.usize()?;
        if count > index.remaining() / MIN_ENTRY_LEN {
            return Err(corrupt(format!(
                "index declares {count} entries in {} bytes",
                index.remaining()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        let mut sections: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for i in 0..count {
            let section = index.string()?;
            let name = index.string()?;
            let key = format!("'{section}/{name}'");
            let dtype = match index.u64()? {
                0 => Dtype::F32,
                1 => Dtype::U64,
                other => return Err(corrupt(format!("entry {key} has dtype {other}"))),
            };
            let rank = index.u64()?;
            let dims = index
                .take(rank.saturating_mul(8))?
                .chunks_exact(8)
                .map(|d| usize::try_from(le_u64(d)))
                .collect::<std::result::Result<Vec<_>, _>>()
                .map_err(|_| corrupt(format!("entry {key} has a dimension past usize")))?;
            let shape = Shape::new(dims);
            let offset = index.usize()?;
            let len = index.usize()?;

            let volume_bytes = shape
                .dims()
                .iter()
                .try_fold(dtype.size(), |acc, &d| acc.checked_mul(d))
                .ok_or_else(|| corrupt(format!("entry {key} shape overflows")))?;
            if len != volume_bytes {
                return Err(corrupt(format!(
                    "entry {key} declares {len} bytes but shape {shape} needs {volume_bytes}"
                )));
            }
            if offset < data_start {
                return Err(corrupt(format!(
                    "entry {key} data range starts inside the index"
                )));
            }
            if !offset.is_multiple_of(DATA_ALIGN) {
                return Err(corrupt(format!(
                    "entry {key} data offset {offset} is not {DATA_ALIGN}-byte aligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("entry {key} byte range overflows")))?;
            if end > file_len {
                return Err(corrupt(format!(
                    "entry {key} byte range [{offset}, {end}) runs past EOF ({file_len})"
                )));
            }
            let names = sections.entry(section.clone()).or_default();
            if names.insert(name.clone(), i).is_some() {
                return Err(corrupt(format!("duplicate entry {key}")));
            }
            entries.push(SnapshotEntry {
                section,
                name,
                dtype,
                shape,
                offset,
                len,
            });
        }
        if index.remaining() != 0 {
            return Err(corrupt("trailing bytes after the index"));
        }
        // No two declared ranges may overlap: sort by offset, check
        // each ends before the next begins.
        let mut ranges: Vec<(usize, usize, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.offset, e.len, i))
            .collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            let (off_a, len_a, a) = pair[0];
            let (off_b, _, b) = pair[1];
            if off_a + len_a > off_b {
                return Err(corrupt(format!(
                    "entries '{}/{}' and '{}/{}' declare overlapping byte ranges",
                    entries[a].section, entries[a].name, entries[b].section, entries[b].name
                )));
            }
        }
        let data_end = ranges.last().map_or(data_start, |&(off, len, _)| off + len);
        if data_end != file_len {
            return Err(corrupt(format!(
                "{} bytes past the last data block",
                file_len - data_end
            )));
        }

        Ok(Snapshot {
            backing,
            step,
            data_start,
            data_crc,
            entries,
            sections,
        })
    }

    /// [`Snapshot::open`] plus the data CRC, which reads every data
    /// byte: a flipped weight bit is rejected. Checkpoint restore and
    /// role-artifact reads use this; serving keeps the cheap `open`.
    pub fn open_verified(path: &Path) -> Result<Snapshot> {
        let snap = Snapshot::open(path)?;
        let actual = crc32(&snap.backing.bytes()[snap.data_start..]);
        if actual != snap.data_crc {
            return Err(corrupt(format!(
                "data CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                snap.data_crc
            )));
        }
        Ok(snap)
    }

    /// Reads only the step of the container at `path` — the cheap "is
    /// there a newer snapshot?" probe the serving engine runs at batch
    /// boundaries. Validates the magic but nothing else; a refresh that
    /// decides to reload goes through full [`Snapshot::open`]
    /// validation.
    pub fn peek_step(path: &Path) -> Result<u64> {
        use std::io::Read as _;
        let mut head = [0u8; 24];
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        file.read_exact(&mut head).map_err(io_err)?;
        if &head[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PLXSNAP2 container)"));
        }
        Ok(le_u64(&head[16..24]))
    }

    /// Completed training iterations when the container was written.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The validated index entries, in file order.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Index of entry `name` in `section`, if present.
    pub fn find(&self, section: &str, name: &str) -> Option<usize> {
        self.sections.get(section)?.get(name).copied()
    }

    fn entry(&self, section: &str, name: &str) -> Result<usize> {
        self.find(section, name).ok_or_else(|| {
            CoreError::Config(format!(
                "snapshot has no entry '{name}' in section '{section}'"
            ))
        })
    }

    /// A zero-copy view of `f32` entry `idx`: shape plus the mapped
    /// bytes reinterpreted in place.
    pub fn view_at(&self, idx: usize) -> Result<TensorView<'_>> {
        let entry = self
            .entries
            .get(idx)
            .ok_or_else(|| CoreError::Config(format!("snapshot has no entry {idx}")))?;
        if entry.dtype != Dtype::F32 {
            return Err(CoreError::Config(format!(
                "entry '{}/{}' is not f32",
                entry.section, entry.name
            )));
        }
        let raw = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        // SAFETY: any bit pattern is a valid f32, so reinterpreting
        // immutable bytes is sound. Alignment was validated at open
        // (offset % DATA_ALIGN == 0 over a page-aligned mapping /
        // u32-aligned buffer), so the reinterpret cannot produce
        // head/tail remainders — and a corrupt index fails the check
        // below.
        let (head, floats, tail) = unsafe { raw.align_to::<f32>() };
        if !head.is_empty() || !tail.is_empty() {
            return Err(corrupt(format!(
                "entry '{}/{}' bytes are not f32-aligned",
                entry.section, entry.name
            )));
        }
        Ok(TensorView::new(&entry.shape, floats)?)
    }

    /// A zero-copy view of the variable named `name` (section [`VAR`]).
    pub fn view(&self, name: &str) -> Result<TensorView<'_>> {
        self.view_at(self.entry(VAR, name)?)
    }

    /// A copy of `f32` entry `name` of `section`.
    pub fn tensor(&self, section: &str, name: &str) -> Result<Tensor> {
        Ok(self.view_at(self.entry(section, name)?)?.to_tensor())
    }

    /// The values of `u64` entry `name` of `section`, flattened.
    pub fn u64s(&self, section: &str, name: &str) -> Result<Vec<u64>> {
        let entry = &self.entries[self.entry(section, name)?];
        if entry.dtype != Dtype::U64 {
            return Err(CoreError::Config(format!(
                "entry '{section}/{name}' is not u64"
            )));
        }
        let raw = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        Ok(raw.chunks_exact(8).map(le_u64).collect())
    }

    /// The address range of the backing bytes, for tests asserting
    /// views borrow the mapping rather than copies.
    pub fn backing_range(&self) -> std::ops::Range<usize> {
        let bytes = self.backing.bytes();
        let start = bytes.as_ptr() as usize;
        start..start + bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::Init;
    use parallax_dataflow::VariableDef;
    use parallax_tensor::DetRng;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 4], Init::Normal(0.1)))
            .unwrap();
        g.variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        g
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parallax_snap_test_{}_{name}", std::process::id()));
        p
    }

    /// Saves a snapshot of `graph()` and returns its path and bytes.
    fn saved(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path(name);
        save(&g, &store, 1, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn u64_at(bytes: &[u8], pos: usize) -> u64 {
        le_u64(&bytes[pos..pos + 8])
    }

    /// Byte positions of entry `i`'s section length, name length, rank
    /// and data offset fields in a well-formed file.
    fn fields(bytes: &[u8], mut i: usize) -> [usize; 4] {
        let mut pos = HEADER_LEN + 8;
        loop {
            let name_at = pos + 8 + u64_at(bytes, pos) as usize;
            let rank_at = name_at + 8 + u64_at(bytes, name_at) as usize + 8;
            let offset_at = rank_at + 8 + 8 * u64_at(bytes, rank_at) as usize;
            if i == 0 {
                return [pos, name_at, rank_at, offset_at];
            }
            i -= 1;
            pos = offset_at + 16;
        }
    }

    /// Overwrites the u64 at `pos` and recomputes both CRCs, so the
    /// validator — not a checksum — must catch the lie.
    fn forge(bytes: &mut [u8], pos: usize, value: u64) {
        let data_start = HEADER_LEN + u64_at(bytes, 24) as usize;
        bytes[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
        let data_crc = crc32(&bytes[data_start..]);
        bytes[12..16].copy_from_slice(&data_crc.to_le_bytes());
        let index_crc = crc32(&bytes[12..data_start]);
        bytes[8..12].copy_from_slice(&index_crc.to_le_bytes());
    }

    /// Rewrites entry `i`'s (offset, len) fields, re-sealed.
    fn forge_range(bytes: &mut [u8], i: usize, offset: u64, len: u64) {
        let at = fields(bytes, i)[3];
        forge(bytes, at, offset);
        forge(bytes, at + 8, len);
    }

    /// Writes `bytes` to `path` and returns `open`'s error message.
    fn open_err(path: &Path, bytes: &[u8]) -> String {
        std::fs::write(path, bytes).unwrap();
        match Snapshot::open(path) {
            Err(CoreError::Config(msg)) => msg,
            other => panic!("forged file must fail closed, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_is_bitwise_and_zero_copy() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("roundtrip");
        save(&g, &store, 17, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.step(), 17);
        assert_eq!(Snapshot::peek_step(&path).unwrap(), 17);
        let range = snap.backing_range();
        for var in g.var_ids() {
            let def = g.var_def(var).unwrap();
            let view = snap.view(&def.name).unwrap();
            assert_eq!(view.shape(), &def.shape);
            // Bitwise equal to the stored value...
            assert_eq!(view.data(), store.get(var).unwrap().data());
            // ...and borrowed straight from the mapping, not a copy.
            let ptr = view.data().as_ptr() as usize;
            assert!(range.contains(&ptr), "view must point into the mapped file");
            // Aligned for SIMD loads.
            assert_eq!(ptr % 4, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_and_dtypes_roundtrip() {
        let t = Tensor::new([2, 3], (0..6).map(|i| i as f32 - 2.5).collect::<Vec<_>>()).unwrap();
        let path = temp_path("sections");
        Writer::new()
            .tensor(VAR, "w", &t)
            .tensor("velocity", "w", &t)
            .f32s("series", "empty", &[])
            .u64s("meta", "ids", vec![0, u64::MAX, 7])
            .write(5, &path)
            .unwrap();
        let snap = Snapshot::open_verified(&path).unwrap();
        assert_eq!(snap.step(), 5);
        assert_eq!(snap.tensor("velocity", "w").unwrap(), t);
        assert_eq!(snap.view("w").unwrap().to_tensor(), t);
        assert!(snap.tensor("series", "empty").unwrap().is_empty());
        assert_eq!(snap.u64s("meta", "ids").unwrap(), [0, u64::MAX, 7]);
        assert_eq!(snap.entries()[3].dtype, Dtype::U64);
        // The section is part of the key, and dtypes are not confused.
        assert!(snap.find("velocity", "ids").is_none());
        assert!(snap.u64s(VAR, "w").is_err());
        assert!(snap.tensor("meta", "ids").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_snapshot_roundtrips() {
        let g = Graph::new();
        let store = VarStore::init(&g, &mut DetRng::seed(1));
        let path = temp_path("empty");
        save(&g, &store, 0, &path).unwrap();
        let snap = Snapshot::open_verified(&path).unwrap();
        assert_eq!(snap.entries().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation_bad_magic_and_index_bit_flips() {
        let (path, bytes) = saved("corrupt");
        // Truncated inside the index, and by one data byte.
        assert!(open_err(&path, &bytes[..40]).contains("EOF"));
        assert!(open_err(&path, &bytes[..bytes.len() - 1]).contains("EOF"));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(open_err(&path, &bad).contains("magic"));
        assert!(Snapshot::peek_step(&path).is_err());
        // A flipped index bit and a flipped step bit: caught by the
        // index CRC.
        for at in [HEADER_LEN + 12, 16] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(open_err(&path, &flipped).contains("index CRC"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn data_bit_flip_passes_open_but_fails_verified_open() {
        let (path, mut bytes) = saved("dataflip");
        // The last block is variable 'b'.
        let last = bytes.len() - 2;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        // The cheap open never reads the weight pages...
        assert!(Snapshot::open(&path).is_ok());
        // ...the verified open rejects the flipped weight bit.
        match Snapshot::open_verified(&path) {
            Err(CoreError::Config(msg)) => assert!(msg.contains("data CRC"), "got: {msg}"),
            other => panic!("data bit flip must fail the data CRC, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (path, mut bytes) = saved("trailing");
        bytes.push(0);
        assert!(open_err(&path, &bytes).contains("past the last data block"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_range_past_eof() {
        let (path, mut bytes) = saved("eof");
        // Keep len == 4 * volume (so the volume check passes) but push
        // the block past the end of the file.
        let past = align_up(bytes.len(), DATA_ALIGN) as u64;
        forge_range(&mut bytes, 2, past, 3 * 4);
        assert!(open_err(&path, &bytes).contains("EOF"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_overlapping_ranges() {
        let (path, mut bytes) = saved("overlap");
        // Point 'w' (12 floats) into 'emb' (40 floats).
        let emb_off = u64_at(&bytes, fields(&bytes, 0)[3]);
        forge_range(&mut bytes, 1, emb_off + 64, 12 * 4);
        assert!(open_err(&path, &bytes).contains("overlap"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_misaligned_wrong_length_and_in_index_ranges() {
        let (path, bytes) = saved("misalign");
        let good_off = u64_at(&bytes, fields(&bytes, 2)[3]);

        let mut forged = bytes.clone();
        forge_range(&mut forged, 2, good_off + 4, 3 * 4);
        assert!(open_err(&path, &forged).contains("aligned"));

        let mut forged = bytes.clone();
        forge_range(&mut forged, 2, good_off, 2 * 4);
        assert!(open_err(&path, &forged).contains("needs"));

        let mut forged = bytes;
        forge_range(&mut forged, 2, HEADER_LEN as u64, 3 * 4);
        assert!(open_err(&path, &forged).contains("inside the index"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forged_counts_and_lengths_fail_closed() {
        let (path, bytes) = saved("forged");
        let [section_at, name_at, rank_at, _] = fields(&bytes, 0);
        let cases = [
            (HEADER_LEN, 1u64 << 40, "entries"),
            (HEADER_LEN, 1 << 61, "entries"),
            (HEADER_LEN, u64::MAX, "entries"),
            (section_at, u64::MAX, "truncated"),
            (name_at, u64::MAX, "truncated"),
            (name_at, 1 << 40, "truncated"),
            (rank_at, 1 << 60, "truncated"),
            (rank_at, u64::MAX, "truncated"),
            (24, u64::MAX, "EOF"),
        ];
        for (at, value, expect) in cases {
            let mut forged = bytes.clone();
            forge(&mut forged, at, value);
            let msg = open_err(&path, &forged);
            assert!(msg.contains(expect), "field {at} = {value}: {msg}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_duplicate_names_within_a_section() {
        let t = Tensor::full([2], 1.0);
        let path = temp_path("duplicate");
        Writer::new()
            .tensor(VAR, "w", &t)
            .tensor(VAR, "w", &t)
            .write(0, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(open_err(&path, &bytes).contains("duplicate"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_publish_replaces_older_snapshot() {
        let g = graph();
        let store = VarStore::init(&g, &mut DetRng::seed(3));
        let path = temp_path("republish");
        save(&g, &store, 2, &path).unwrap();
        let mut newer = store.clone();
        let var = g.find_variable("b").unwrap();
        newer.set(var, Tensor::full([3], 9.0)).unwrap();
        save(&g, &newer, 4, &path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.step(), 4);
        assert_eq!(snap.view("b").unwrap().data(), &[9.0, 9.0, 9.0]);
        std::fs::remove_file(&path).ok();
    }
}
