//! Simulated memory: host, pinned-host, and GPU global buffers.
//!
//! A [`Buffer`] is the functional backing store for every payload in the
//! simulation — send/receive buffers, partition flags, collective scratch.
//! Data really moves: an RMA put copies bytes from the source buffer into the
//! destination buffer, so numerical results (allreduce sums, Jacobi residuals)
//! are exact and testable.
//!
//! Offsets in this API are **byte offsets**, mirroring RMA semantics; typed
//! helpers (`*_f64`, `*_f32`) do the element math. All accessors are
//! bounds-checked and panic on out-of-range access — in a communication
//! runtime an out-of-range RMA is a correctness bug we want loud.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

/// Globally unique buffer identity (used by registration / rkeys).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// Where a node-local hardware unit lives in the cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Location {
    /// Node (host) index within the cluster.
    pub node: u16,
    /// The unit on that node.
    pub unit: Unit,
}

/// A hardware unit on a node.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// The host CPU (Grace).
    Cpu,
    /// GPU with the given on-node index (Hopper).
    Gpu(u8),
}

/// The memory space a buffer lives in; determines transfer routing and
/// access costs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemSpace {
    /// Pageable host DRAM.
    Host {
        /// Owning node.
        node: u16,
    },
    /// Page-locked host DRAM, accessible by devices over NVLink-C2C. Used
    /// for the progression-engine notification flags.
    PinnedHost {
        /// Owning node.
        node: u16,
    },
    /// GPU global memory (HBM3).
    Device {
        /// Owning node.
        node: u16,
        /// Owning GPU index on that node.
        gpu: u8,
    },
}

impl MemSpace {
    /// The location whose memory controller owns this space.
    pub fn location(self) -> Location {
        match self {
            MemSpace::Host { node } | MemSpace::PinnedHost { node } => {
                Location { node, unit: Unit::Cpu }
            }
            MemSpace::Device { node, gpu } => Location { node, unit: Unit::Gpu(gpu) },
        }
    }

    /// The owning node.
    pub fn node(self) -> u16 {
        match self {
            MemSpace::Host { node } | MemSpace::PinnedHost { node } => node,
            MemSpace::Device { node, .. } => node,
        }
    }

    /// True for device (HBM) memory.
    pub fn is_device(self) -> bool {
        matches!(self, MemSpace::Device { .. })
    }

    /// True for page-locked host memory.
    pub fn is_pinned_host(self) -> bool {
        matches!(self, MemSpace::PinnedHost { .. })
    }
}

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

struct BufInner {
    id: BufferId,
    space: MemSpace,
    bytes: Mutex<Vec<u8>>,
}

/// A reference-counted simulated memory buffer. Cheap to clone.
#[derive(Clone)]
pub struct Buffer {
    inner: Arc<BufInner>,
}

impl Buffer {
    /// Allocate a zero-initialized buffer of `len` bytes in `space`.
    pub fn alloc(space: MemSpace, len: usize) -> Buffer {
        Buffer {
            inner: Arc::new(BufInner {
                id: BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)),
                space,
                bytes: Mutex::new(vec![0u8; len]),
            }),
        }
    }

    /// This buffer's globally unique id.
    pub fn id(&self) -> BufferId {
        self.inner.id
    }

    /// The memory space this buffer lives in.
    pub fn space(&self) -> MemSpace {
        self.inner.space
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.bytes.lock().len()
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `self` and `other` share the same allocation.
    pub fn same_allocation(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    // ---- raw byte access -------------------------------------------------

    /// Copy `src` into the buffer at `offset`.
    pub fn write_bytes(&self, offset: usize, src: &[u8]) {
        let mut b = self.inner.bytes.lock();
        b[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        let b = self.inner.bytes.lock();
        b[offset..offset + len].to_vec()
    }

    /// Zero-fill the whole buffer.
    pub fn zero(&self) {
        self.inner.bytes.lock().fill(0);
    }

    /// Functional copy between buffers (the data plane of an RMA put or a
    /// DMA memcpy). Within one allocation the ranges may overlap: the copy
    /// behaves as if through a temporary, under one lock.
    pub fn copy_from_buffer(&self, dst_offset: usize, src: &Buffer, src_offset: usize, len: usize) {
        if self.same_allocation(src) {
            self.inner.bytes.lock().copy_within(src_offset..src_offset + len, dst_offset);
            return;
        }
        let src_guard = src.inner.bytes.lock();
        let mut dst_guard = self.inner.bytes.lock();
        dst_guard[dst_offset..dst_offset + len]
            .copy_from_slice(&src_guard[src_offset..src_offset + len]);
    }

    /// Run `f` over the raw bytes (read-only).
    pub fn with_bytes<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        f(&self.inner.bytes.lock())
    }

    /// Run `f` over the raw bytes (mutable).
    pub fn with_bytes_mut<T>(&self, f: impl FnOnce(&mut [u8]) -> T) -> T {
        f(&mut self.inner.bytes.lock())
    }

    // ---- f64 cells in place ----------------------------------------------

    /// Run `f` over this buffer's `f64` cells, read-only, under one lock.
    pub fn with_f64<T>(&self, f: impl FnOnce(F64Cells<'_>) -> T) -> T {
        f(F64Cells { bytes: &self.inner.bytes.lock() })
    }

    /// Run `f` over this buffer's `f64` cells, writable, under one lock.
    pub fn with_f64_mut<T>(&self, f: impl FnOnce(F64CellsMut<'_>) -> T) -> T {
        f(F64CellsMut { bytes: &mut self.inner.bytes.lock() })
    }

    /// Run `f` over this buffer's cells (writable) and `src`'s cells
    /// (read-only), under one lock each: the shape of a kernel body that
    /// reads one array and writes another.
    ///
    /// Panics if both name one allocation, which would lock it twice.
    pub fn with_f64_from<T>(
        &self,
        src: &Buffer,
        f: impl FnOnce(F64CellsMut<'_>, F64Cells<'_>) -> T,
    ) -> T {
        assert!(
            !self.same_allocation(src),
            "with_f64_from: source and destination share one allocation"
        );
        let src_guard = src.inner.bytes.lock();
        let mut dst_guard = self.inner.bytes.lock();
        f(F64CellsMut { bytes: &mut dst_guard }, F64Cells { bytes: &src_guard })
    }

    // ---- f64 views -------------------------------------------------------

    /// Write a slice of `f64` at a byte offset.
    pub fn write_f64_slice(&self, byte_offset: usize, src: &[f64]) {
        self.with_f64_mut(|mut c| c.write(byte_offset, src.iter().copied()));
    }

    /// Read `n` `f64` values from a byte offset.
    pub fn read_f64_slice(&self, byte_offset: usize, n: usize) -> Vec<f64> {
        self.with_f64(|c| c.iter(byte_offset, n).collect())
    }

    /// Read a single `f64`.
    pub fn read_f64(&self, byte_offset: usize) -> f64 {
        self.with_f64(|c| c.get(byte_offset))
    }

    /// Write a single `f64`.
    pub fn write_f64(&self, byte_offset: usize, v: f64) {
        self.with_f64_mut(|mut c| c.set(byte_offset, v));
    }

    /// Apply `f` elementwise to `n` `f64`s in place.
    pub fn map_f64_inplace(&self, byte_offset: usize, n: usize, mut f: impl FnMut(f64) -> f64) {
        let mut b = self.inner.bytes.lock();
        for chunk in b[byte_offset..byte_offset + n * 8].chunks_exact_mut(8) {
            chunk.copy_from_slice(&f(decode(chunk)).to_le_bytes());
        }
    }

    /// `self[dst..] += other[src..]` over `n` `f64` elements — the reduction
    /// data plane for allreduce. Within one allocation the ranges may
    /// overlap: every source cell is read before it is written, as if the
    /// source were copied out first.
    pub fn accumulate_f64(&self, dst_offset: usize, other: &Buffer, src_offset: usize, n: usize) {
        if self.same_allocation(other) {
            return self.with_f64_mut(|mut c| {
                assert!(
                    dst_offset.max(src_offset) + n * 8 <= c.bytes.len(),
                    "accumulate_f64: range out of bounds"
                );
                let mut add = |i: usize| {
                    let (d, s) = (dst_offset + i * 8, src_offset + i * 8);
                    c.set(d, c.get(d) + c.get(s));
                };
                // Walk away from the overlap, as memmove does.
                if dst_offset <= src_offset {
                    (0..n).for_each(&mut add);
                } else {
                    (0..n).rev().for_each(&mut add);
                }
            });
        }
        self.with_f64_from(other, |dst, src| {
            let dst = &mut dst.bytes[dst_offset..dst_offset + n * 8];
            for (chunk, s) in dst.chunks_exact_mut(8).zip(src.iter(src_offset, n)) {
                chunk.copy_from_slice(&(decode(chunk) + s).to_le_bytes());
            }
        });
    }

    /// Sum of `n` `f64` elements.
    pub fn reduce_sum_f64(&self, byte_offset: usize, n: usize) -> f64 {
        self.with_f64(|c| c.iter(byte_offset, n).sum())
    }

    // ---- f32 views -------------------------------------------------------

    /// Write a slice of `f32` at a byte offset.
    pub fn write_f32_slice(&self, byte_offset: usize, src: &[f32]) {
        let mut b = self.inner.bytes.lock();
        let dst = &mut b[byte_offset..byte_offset + src.len() * 4];
        for (chunk, v) in dst.chunks_exact_mut(4).zip(src) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read `n` `f32` values from a byte offset.
    pub fn read_f32_slice(&self, byte_offset: usize, n: usize) -> Vec<f32> {
        let b = self.inner.bytes.lock();
        b[byte_offset..byte_offset + n * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect()
    }

    /// Apply `f` elementwise to `n` `f32`s in place.
    pub fn map_f32_inplace(&self, byte_offset: usize, n: usize, mut f: impl FnMut(f32) -> f32) {
        let mut b = self.inner.bytes.lock();
        for chunk in b[byte_offset..byte_offset + n * 4].chunks_exact_mut(4) {
            let v = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            chunk.copy_from_slice(&f(v).to_le_bytes());
        }
    }

    // ---- u64 flag words (partition status) --------------------------------

    /// Read flag word `index` (8-byte stride).
    pub fn read_flag(&self, index: usize) -> u64 {
        let b = self.inner.bytes.lock();
        u64::from_le_bytes(b[index * 8..index * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Write flag word `index`.
    pub fn write_flag(&self, index: usize, v: u64) {
        self.write_bytes(index * 8, &v.to_le_bytes());
    }
}

// Kernel bodies in other crates call the codec once per cell, and a
// non-generic function only inlines across crates when marked `#[inline]`;
// out of line, the Jacobi stencil ran slower than the `Vec` path it replaced.

/// Decode one little-endian `f64` cell.
#[inline]
fn decode(cell: &[u8]) -> f64 {
    f64::from_le_bytes(cell.try_into().expect("8-byte cell"))
}

/// A buffer's bytes borrowed under its lock and read as little-endian
/// `f64` cells (see [`Buffer::with_f64`]). Offsets are byte offsets, as in
/// the rest of this API, and every access is bounds-checked.
#[derive(Copy, Clone)]
pub struct F64Cells<'a> {
    bytes: &'a [u8],
}

impl<'a> F64Cells<'a> {
    /// The cell at `byte_offset`.
    #[inline]
    pub fn get(self, byte_offset: usize) -> f64 {
        decode(&self.bytes[byte_offset..byte_offset + 8])
    }

    /// The `n` consecutive cells from `byte_offset` on.
    #[inline]
    pub fn iter(self, byte_offset: usize, n: usize) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.bytes[byte_offset..byte_offset + n * 8].chunks_exact(8).map(decode)
    }
}

/// A buffer's bytes borrowed mutably under its lock as little-endian `f64`
/// cells (see [`Buffer::with_f64_mut`]). Byte offsets, bounds-checked.
pub struct F64CellsMut<'a> {
    bytes: &'a mut [u8],
}

impl F64CellsMut<'_> {
    /// The cell at `byte_offset`.
    #[inline]
    pub fn get(&self, byte_offset: usize) -> f64 {
        decode(&self.bytes[byte_offset..byte_offset + 8])
    }

    /// Store `v` in the cell at `byte_offset`.
    #[inline]
    pub fn set(&mut self, byte_offset: usize, v: f64) {
        self.bytes[byte_offset..byte_offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Store `values` in consecutive cells from `byte_offset` on. The whole
    /// range is bounds-checked before the first store.
    pub fn write(&mut self, byte_offset: usize, values: impl ExactSizeIterator<Item = f64>) {
        let dst = &mut self.bytes[byte_offset..byte_offset + values.len() * 8];
        for (cell, v) in dst.chunks_exact_mut(8).zip(values) {
            cell.copy_from_slice(&v.to_le_bytes());
        }
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buffer")
            .field("id", &self.inner.id)
            .field("space", &self.inner.space)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_buf(len: usize) -> Buffer {
        Buffer::alloc(MemSpace::Host { node: 0 }, len)
    }

    #[test]
    fn alloc_is_zeroed_and_ids_unique() {
        let a = host_buf(16);
        let b = host_buf(16);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.read_bytes(0, 16), vec![0u8; 16]);
    }

    #[test]
    fn f64_roundtrip() {
        let b = host_buf(64);
        let data = [1.5, -2.25, 3.75, 0.0];
        b.write_f64_slice(8, &data);
        assert_eq!(b.read_f64_slice(8, 4), data);
        assert_eq!(b.read_f64(8), 1.5);
    }

    #[test]
    fn f32_roundtrip() {
        let b = host_buf(32);
        let data = [1.5f32, -2.25, 3.75];
        b.write_f32_slice(4, &data);
        assert_eq!(b.read_f32_slice(4, 3), data);
    }

    #[test]
    fn copy_between_buffers() {
        let src = host_buf(32);
        let dst = host_buf(32);
        src.write_f64_slice(0, &[7.0, 8.0]);
        dst.copy_from_buffer(16, &src, 0, 16);
        assert_eq!(dst.read_f64_slice(16, 2), vec![7.0, 8.0]);
    }

    #[test]
    fn copy_within_same_allocation() {
        let b = host_buf(32);
        b.write_f64_slice(0, &[1.0, 2.0]);
        let alias = b.clone();
        alias.copy_from_buffer(16, &b, 0, 16);
        assert_eq!(b.read_f64_slice(16, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn accumulate_adds() {
        let a = host_buf(24);
        let b = host_buf(24);
        a.write_f64_slice(0, &[1.0, 2.0, 3.0]);
        b.write_f64_slice(0, &[10.0, 20.0, 30.0]);
        a.accumulate_f64(0, &b, 0, 3);
        assert_eq!(a.read_f64_slice(0, 3), vec![11.0, 22.0, 33.0]);
        assert_eq!(a.reduce_sum_f64(0, 3), 66.0);
    }

    #[test]
    fn map_inplace() {
        let b = host_buf(16);
        b.write_f64_slice(0, &[2.0, 3.0]);
        b.map_f64_inplace(0, 2, |x| x * x);
        assert_eq!(b.read_f64_slice(0, 2), vec![4.0, 9.0]);
    }

    #[test]
    fn flags() {
        let b = host_buf(32);
        b.write_flag(2, 0xDEAD);
        assert_eq!(b.read_flag(2), 0xDEAD);
        assert_eq!(b.read_flag(0), 0);
        b.zero();
        assert_eq!(b.read_flag(2), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        host_buf(8).write_bytes(4, &[0u8; 8]);
    }

    /// Seeded distinct cells, so a misplaced read shows in the result.
    fn seeded_cells(seed: u64, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        parcomm_sim::SimRng::seeded(seed).fill_uniform_f64(&mut v, -1e3, 1e3);
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every `(dst, src)` cell-offset pair of an `n`-cell range inside
    /// `cells` cells: disjoint, overlapping either way, and identical.
    fn range_pairs(cells: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..=cells - n).flat_map(move |d| (0..=cells - n).map(move |s| (d, s)))
    }

    #[test]
    fn in_place_accumulate_matches_vec_model() {
        const CELLS: usize = 40;
        let mut overlapping = 0;
        for (seed, n) in [(1, 1), (2, 3), (3, 8), (4, 17)] {
            for (d, s) in range_pairs(CELLS, n) {
                let (x, y) = (seeded_cells(seed, CELLS), seeded_cells(seed + 100, CELLS));

                // Across buffers.
                let (a, b) = (host_buf(CELLS * 8), host_buf(CELLS * 8));
                a.write_f64_slice(0, &x);
                b.write_f64_slice(0, &y);
                a.accumulate_f64(d * 8, &b, s * 8, n);
                let mut want = x.clone();
                for i in 0..n {
                    want[d + i] += y[s + i];
                }
                let got = bits(&a.read_f64_slice(0, CELLS));
                assert_eq!(got, bits(&want), "across d={d} s={s} n={n}");
                assert_eq!(bits(&b.read_f64_slice(0, CELLS)), bits(&y), "source untouched");

                // Within one allocation: the model reads the source first.
                let a = host_buf(CELLS * 8);
                a.write_f64_slice(0, &x);
                a.accumulate_f64(d * 8, &a.clone(), s * 8, n);
                let src = x[s..s + n].to_vec();
                let mut want = x.clone();
                for i in 0..n {
                    want[d + i] += src[i];
                }
                let got = bits(&a.read_f64_slice(0, CELLS));
                assert_eq!(got, bits(&want), "within d={d} s={s} n={n}");
                overlapping += usize::from(d.abs_diff(s) < n);
            }
        }
        assert!(overlapping > 0);
    }

    #[test]
    fn in_place_copy_matches_vec_model() {
        const CELLS: usize = 40;
        for (seed, n) in [(5, 1), (6, 3), (7, 8), (8, 17)] {
            for (d, s) in range_pairs(CELLS, n) {
                let (x, y) = (seeded_cells(seed, CELLS), seeded_cells(seed + 100, CELLS));

                let (a, b) = (host_buf(CELLS * 8), host_buf(CELLS * 8));
                a.write_f64_slice(0, &x);
                b.write_f64_slice(0, &y);
                a.copy_from_buffer(d * 8, &b, s * 8, n * 8);
                let mut want = x.clone();
                want[d..d + n].copy_from_slice(&y[s..s + n]);
                let got = bits(&a.read_f64_slice(0, CELLS));
                assert_eq!(got, bits(&want), "across d={d} s={s} n={n}");

                let a = host_buf(CELLS * 8);
                a.write_f64_slice(0, &x);
                a.copy_from_buffer(d * 8, &a.clone(), s * 8, n * 8);
                let mut want = x.clone();
                want.copy_within(s..s + n, d);
                let got = bits(&a.read_f64_slice(0, CELLS));
                assert_eq!(got, bits(&want), "within d={d} s={s} n={n}");
            }
        }
    }

    #[test]
    fn cell_views_read_and_write_in_place() {
        let (a, b) = (host_buf(32), host_buf(32));
        b.write_f64_slice(0, &[1.0, 2.0, 3.0, 4.0]);
        a.with_f64_from(&b, |mut dst, src| {
            dst.write(8, src.iter(0, 3).map(|v| v * 10.0));
            dst.set(0, src.get(24));
            assert_eq!(dst.get(16), 20.0);
        });
        assert_eq!(a.read_f64_slice(0, 4), vec![4.0, 10.0, 20.0, 30.0]);
        assert_eq!(a.with_f64(|c| c.iter(8, 3).sum::<f64>()), 60.0);
    }

    /// Out-of-range accesses panic, and the ranged ones before their first
    /// store: the destination is left as it was.
    #[test]
    fn out_of_range_cell_access_panics_before_writing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (a, b) = (host_buf(32), host_buf(32));
        a.write_f64_slice(0, &[1.0, 2.0, 3.0, 4.0]);
        b.write_f64_slice(0, &[5.0, 6.0, 7.0, 8.0]);
        let alias = a.clone();
        let cases: [(&str, &dyn Fn()); 10] = [
            ("accumulate src", &|| a.accumulate_f64(0, &b, 8, 4)),
            ("accumulate dst", &|| a.accumulate_f64(8, &b, 0, 4)),
            ("accumulate within", &|| a.accumulate_f64(0, &alias, 8, 4)),
            ("copy within", &|| a.copy_from_buffer(0, &alias, 8, 32)),
            ("copy across", &|| a.copy_from_buffer(8, &b, 0, 32)),
            ("cells get", &|| {
                a.with_f64(|c| c.get(32));
            }),
            ("cells iter", &|| {
                a.with_f64(|c| c.iter(8, 4).count());
            }),
            ("cells write", &|| a.with_f64_mut(|mut c| c.write(8, [9.0; 4].into_iter()))),
            ("cells set", &|| a.with_f64_mut(|mut c| c.set(25, 9.0))),
            ("one allocation twice", &|| a.with_f64_from(&alias, |_, _| ())),
        ];
        for (name, case) in cases {
            assert!(catch_unwind(AssertUnwindSafe(case)).is_err(), "{name} must panic");
            assert_eq!(a.read_f64_slice(0, 4), vec![1.0, 2.0, 3.0, 4.0], "{name} wrote");
            assert_eq!(b.read_f64_slice(0, 4), vec![5.0, 6.0, 7.0, 8.0], "{name} wrote");
        }
    }

    #[test]
    fn memspace_properties() {
        let d = MemSpace::Device { node: 1, gpu: 2 };
        assert!(d.is_device());
        assert_eq!(d.location(), Location { node: 1, unit: Unit::Gpu(2) });
        let p = MemSpace::PinnedHost { node: 3 };
        assert!(p.is_pinned_host());
        assert_eq!(p.location().unit, Unit::Cpu);
        assert_eq!(p.node(), 3);
    }
}
